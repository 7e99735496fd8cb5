package profiling

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegisterParsesFlags checks the three flags land in Flags.
func TestRegisterParsesFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", "c", "-memprofile", "m", "-trace", "t"}); err != nil {
		t.Fatal(err)
	}
	if *f != (Flags{CPU: "c", Mem: "m", Trace: "t"}) {
		t.Fatalf("parsed %+v", *f)
	}
}

// TestStartWritesEveryOutput starts and stops all three outputs and checks
// each file is left behind non-empty.
func TestStartWritesEveryOutput(t *testing.T) {
	dir := t.TempDir()
	f := Flags{CPU: filepath.Join(dir, "cpu.out"), Mem: filepath.Join(dir, "mem.out"), Trace: filepath.Join(dir, "trace.out")}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{f.CPU, f.Mem, f.Trace} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("output not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

// TestStartErrorsNameTheFlag checks an unwritable path fails with the flag's
// name, and that a failed Start leaves nothing running: a later Start of the
// same outputs succeeds.
func TestStartErrorsNameTheFlag(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "no-such-dir", "out")
	good := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		f    Flags
		want string
	}{
		{Flags{CPU: bad}, "-cpuprofile"},
		{Flags{CPU: good("cpu1"), Trace: bad}, "-trace"},
	} {
		if _, err := tc.f.Start(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Start(%+v) = %v, want an error naming %s", tc.f, err, tc.want)
		}
	}
	stop, err := (&Flags{Mem: bad}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil || !strings.Contains(err.Error(), "-memprofile") {
		t.Errorf("stop with an unwritable -memprofile = %v, want an error naming it", err)
	}
	stop, err = (&Flags{CPU: good("cpu2"), Trace: good("trace")}).Start()
	if err != nil {
		t.Fatalf("Start after failed Starts: %v (a failed Start left a profile running)", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartNothing checks empty Flags start and stop nothing.
func TestStartNothing(t *testing.T) {
	stop, err := (&Flags{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
