package main

import (
	"flag"
	"fmt"
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
		if cpu, err = os.Create(*cpuProfileFlag); err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
				os.Exit(1)
			}
		}
		if *memProfileFlag == "" {
			return
		}
		f, err := os.Create(*memProfileFlag)
		if err == nil {
			runtime.GC() // flush the last cycle's allocations into the profile
			if err = pprof.Lookup("allocs").WriteTo(f, 0); err == nil {
				err = f.Close()
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			os.Exit(1)
		}
	}
}
