// Package cmd_test pins the command-line surface of the five binaries.
// Each one's -h text and one smoke invocation are golden files under
// testdata/, so the experiment, application, analyzer and endpoint lists
// a user sees are compared byte for byte rather than described in prose.
// After an intended change: go test ./cmd -update
package cmd_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the binaries' current output")

// binDir holds the five binaries, built once by TestMain.
var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "repro-cmd-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./appstat", "./logpsig", "./repro", "./reprod", "./reprolint")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// invocation is one command line and what it must do: exit with the
// given code and print exactly testdata/<name>.golden.
type invocation struct {
	name string
	args []string
	exit int
}

// run executes one binary and returns its exit code and both streams
// in the golden files' layout. The temporary build directory in flag's
// "Usage of <argv0>" line is cut so the text is the same on every host.
func run(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Dir = t.TempDir()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	out := "--- stdout\n" + stdout.String() + "--- stderr\n" + stderr.String()
	return code, strings.ReplaceAll(out, binDir+string(os.PathSeparator), "")
}

func checkGolden(t *testing.T, bin string, cases []invocation) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, got := run(t, bin, tc.args...)
			if code != tc.exit {
				t.Errorf("%s %v: exit %d, want %d\n%s", bin, tc.args, code, tc.exit, got)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s %v differs from %s (go test ./cmd -update after an intended change):\n--- got\n%s--- want\n%s",
					bin, tc.args, path, got, want)
			}
		})
	}
}

func TestRepro(t *testing.T) {
	checkGolden(t, "repro", []invocation{
		{"repro-h", []string{"-h"}, 0},
		{"repro-list", []string{"-list"}, 0},
		{"repro-no-exp", nil, 2},
		{"repro-unknown-exp", []string{"-exp", "fig99"}, 1},
	})
}

// TestReproWritesProfiles: -cpuprofile and -memprofile leave non-empty
// files behind on the way out of a render and of an error exit alike.
func TestReproWritesProfiles(t *testing.T) {
	for _, tc := range []struct {
		exp  string
		exit int
	}{{"table1", 0}, {"fig99", 1}} {
		t.Run(tc.exp, func(t *testing.T) {
			dir := t.TempDir()
			cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
			code, out := run(t, "repro", "-exp", tc.exp, "-cpuprofile", cpu, "-memprofile", mem)
			if code != tc.exit {
				t.Fatalf("exit %d, want %d\n%s", code, tc.exit, out)
			}
			for _, path := range []string{cpu, mem} {
				if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
					t.Errorf("%s: %v, want a non-empty profile", filepath.Base(path), err)
				}
			}
		})
	}
}

// TestReproInterruptKeepsProfile interrupts repro while its plan is
// executing: no further run starts, the runs that finished are
// summarized, the exit is non-zero, and it goes through run's deferred
// calls — the CPU profile is a complete gzip stream, not the empty file
// a killed process leaves.
func TestReproInterruptKeepsProfile(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	// The full fig5b plan, one lane: seconds of work left at any point.
	cmd := exec.Command(filepath.Join(binDir, "repro"), "-exp", "fig5b", "-procs", "8",
		"-scale", "0.001953125", "-jobs", "1", "-cpuprofile", cpu)
	cmd.Dir = dir
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	// The first progress line says the plan is executing.
	var seen []byte
	for buf := make([]byte, 4096); !bytes.Contains(seen, []byte("[1/")); {
		n, err := stderr.Read(buf)
		if err != nil {
			t.Fatalf("repro ended before its first run: %v\n%s", err, seen)
		}
		seen = append(seen, buf[:n]...)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(stderr)
	if err != nil {
		t.Fatal(err)
	}
	seen = append(seen, rest...)
	var ee *exec.ExitError
	if err := cmd.Wait(); !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Errorf("repro after SIGINT: %v, want exit status 1\n%s", err, seen)
	}
	for _, want := range []string{"repro: executed ", "repro: interrupted, "} {
		if !bytes.Contains(seen, []byte(want)) {
			t.Errorf("stderr lacks %q:\n%s", want, seen)
		}
	}
	f, err := os.Open(cpu)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("cpu profile: %v", err)
	}
	if prof, err := io.ReadAll(zr); err != nil || len(prof) == 0 {
		t.Errorf("cpu profile: %d bytes, %v; want a complete profile", len(prof), err)
	}
}

func TestAppstat(t *testing.T) {
	checkGolden(t, "appstat", []invocation{
		{"appstat-h", []string{"-h"}, 0},
		{"appstat-listapps", []string{"-listapps"}, 0},
		{"appstat-blk-kernel", []string{"-app", "scale-radix-blk"}, 2},
		{"appstat-timeline-profile", []string{"-app", "radix", "-procs", "8", "-timeline", "-profile"}, 0},
	})
}

func TestLogpsig(t *testing.T) {
	checkGolden(t, "logpsig", []invocation{
		{"logpsig-h", []string{"-h"}, 0},
		{"logpsig-signature", []string{"-signature"}, 0},
	})
}

func TestReprod(t *testing.T) {
	checkGolden(t, "reprod", []invocation{
		{"reprod-help", []string{"help"}, 0},
		{"reprod-no-command", nil, 2},
		{"reprod-retired-command", []string{"loadtest"}, 2},
	})
}

func TestReprolint(t *testing.T) {
	checkGolden(t, "reprolint", []invocation{
		{"reprolint-h", []string{"-h"}, 0},
	})
}

// TestReprodServesWhatHelpLists boots the daemon and asks it for every
// endpoint its usage text names, so the list cannot name a route that
// is not registered (an unknown path answers 404, a wrong method 405).
// An empty JSON object is a bad request to every POST route, which is
// all the probe needs: nothing is simulated.
func TestReprodServesWhatHelpLists(t *testing.T) {
	_, help := run(t, "reprod", "help")
	endpoints := regexp.MustCompile(`(?m)^  (POST|GET) +(/\S+)`).FindAllStringSubmatch(help, -1)
	if len(endpoints) == 0 {
		t.Fatalf("no endpoints in the usage text:\n%s", help)
	}

	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	daemon := exec.Command(filepath.Join(binDir, "reprod"), "serve", "-addr", "127.0.0.1:0",
		"-workers", "1", "-cache", filepath.Join(dir, "cache"), "-addr-file", addrFile)
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()
	var addr []byte
	for deadline := time.Now().Add(10 * time.Second); len(addr) == 0; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("reprod serve did not write its address file")
		}
		addr, _ = os.ReadFile(addrFile)
	}

	for _, ep := range endpoints {
		method, path := ep[1], ep[2]
		req, err := http.NewRequest(method, "http://"+string(addr)+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("usage lists %s %s, the daemon answers %d", method, path, resp.StatusCode)
		}
	}

	if err := daemon.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Errorf("reprod serve after SIGINT: %v, want a clean exit", err)
	}
}
