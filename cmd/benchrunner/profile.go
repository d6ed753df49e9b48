package main

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

var (
	cpuProfileFlag = flag.String("cpuprofile", "", "write a CPU profile of the figure run to this file (read with go tool pprof)")
	memProfileFlag = flag.String("memprofile", "", "write an allocation profile of the figure run to this file when it finishes")
)

// startProfiles starts the CPU profile, if asked for, before any figure
// runs. The returned function ends it and writes the allocation profile; it
// runs once the figures are done, so set-up and measurement are both in.
func startProfiles() (stop func()) {
	var cpu *os.File
	if *cpuProfileFlag != "" {
		var err error
		cpu, err = os.Create(*cpuProfileFlag)
		check(err)
		check(pprof.StartCPUProfile(cpu))
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			check(cpu.Close())
		}
		if *memProfileFlag == "" {
			return
		}
		f, err := os.Create(*memProfileFlag)
		check(err)
		runtime.GC() // flush the last cycle's allocations into the profile
		check(pprof.Lookup("allocs").WriteTo(f, 0))
		check(f.Close())
	}
}
