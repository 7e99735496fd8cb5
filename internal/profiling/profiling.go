// Package profiling gives the repository's commands one set of profiling
// flags — -cpuprofile, -memprofile and -trace — and starts and stops what
// they ask for. Profiles are written in pprof format for `go tool pprof`,
// the execution trace in runtime/trace format for `go tool trace`.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the output paths the profiling flags name; an empty path
// skips that output.
type Flags struct {
	CPU   string // -cpuprofile: CPU profile of the whole run
	Mem   string // -memprofile: heap profile taken when the run ends
	Trace string // -trace: execution trace of the whole run
}

// Register adds -cpuprofile, -memprofile and -trace to fs and returns the
// Flags their values are parsed into.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile of the run to this file (pprof format)")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile to this file when the run ends (pprof format)")
	fs.StringVar(&f.Trace, "trace", "", "write an execution trace of the run to this file (runtime/trace format, for go tool trace)")
	return f
}

// Start starts the CPU profile and the execution trace f asks for and
// returns the function that stops them and then writes the heap profile
// (allocation counts and bytes since start, plus the live heap). When Start
// fails nothing is left running. Errors name the flag whose file failed.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu, tr *os.File
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	stopCPU := func() error {
		if cpu == nil {
			return nil
		}
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		return nil
	}
	if f.Trace != "" {
		if tr, err = os.Create(f.Trace); err == nil {
			if err = trace.Start(tr); err != nil {
				tr.Close()
			}
		}
		if err != nil {
			stopCPU()
			return nil, fmt.Errorf("-trace: %w", err)
		}
	}
	return func() error {
		if tr != nil {
			trace.Stop()
			if err := tr.Close(); err != nil {
				stopCPU()
				return fmt.Errorf("-trace: %w", err)
			}
		}
		if err := stopCPU(); err != nil {
			return err
		}
		return writeHeap(f.Mem)
	}, nil
}

// writeHeap writes a heap profile to path; an empty path writes nothing.
func writeHeap(path string) error {
	if path == "" {
		return nil
	}
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	runtime.GC() // settle the live-heap figures
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return fmt.Errorf("-memprofile: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	return nil
}
