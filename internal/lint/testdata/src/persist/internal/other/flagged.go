// Package other is outside the durable stores: it must not construct
// writes to their protected artifacts at all.
package other

import (
	"os"
	"path/filepath"
)

// Clobber writes a checkpoint file from outside its owning store.
func Clobber(dir string, payload []byte) error {
	return os.WriteFile(filepath.Join(dir, "dir.ckpt"), payload, 0o644) // want "protected durable artifact"
}

// ClobberVar hides the protected name behind a local variable.
func ClobberVar(dir string) error {
	p := filepath.Join(dir, "dead.log")
	f, err := os.Create(p) // want "protected durable artifact"
	if err != nil {
		return err
	}
	return f.Close()
}
