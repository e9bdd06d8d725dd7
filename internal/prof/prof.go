// Package prof holds the commands' shared -cpuprofile plumbing, so
// every binary profiles itself the same way: the profile covers the
// process from the flag's parse to the command's orderly exit, and a
// failure to write it out is an error, not a silently truncated file.
package prof

import (
	"errors"
	"os"
	"runtime/pprof"
)

// StartCPU starts a CPU profile of the process into path and returns
// the function that stops it. Stopping flushes the profile and closes
// the file; the close error says whether the profile on disk is whole.
func StartCPU(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
