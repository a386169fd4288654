package obs

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// StartCPUProfile writes a CPU profile to path until the returned stop
// function is called.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
