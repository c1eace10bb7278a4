package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// asMainEnv marks a child process started by runMain: the test binary
// then behaves as mpsocsim on its arguments.
const asMainEnv = "MPSOCSIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs mpsocsim's real main with args in a child process and
// returns its standard output.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("mpsocsim %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestCPUProfileFlag: -cpuprofile writes a gzipped pprof profile and
// leaves the run's output untouched.
func TestCPUProfileFlag(t *testing.T) {
	args := []string{"-attack", "-attack-scenarios", "tamper", "-sweep-protections", "distributed",
		"-attack-backgrounds", "secure-scrub", "-accesses", "64", "-inject-delay", "100", "-workers", "1"}
	plain := runMain(t, args...)
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	profiled := runMain(t, append(args, "-cpuprofile", prof)...)
	if len(plain) == 0 || !bytes.Equal(plain, profiled) {
		t.Fatalf("stdout changed under -cpuprofile:\nwithout: %s\nwith:    %s", plain, profiled)
	}
	data, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile is not gzipped pprof data (%d bytes, starts % x)", len(data), data[:min(len(data), 2)])
	}
}
