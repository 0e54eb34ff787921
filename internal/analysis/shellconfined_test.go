package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoroutineAllowsConfinedToShell pins that the goroutinefree escape
// hatch is used nowhere. The simulator has no channel and no go statement
// left to excuse: state-machine bodies never had a stack, and blocking
// bodies are stepped through iter.Pull in internal/sim/coro.go, which the
// analyzer exempts by file name. An allow directive appearing anywhere
// means host concurrency crept back into code that must run a million
// processors on one goroutine.
func TestGoroutineAllowsConfinedToShell(t *testing.T) {
	root := moduleRoot(t)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			// Fixtures under testdata demonstrate the escape hatch on
			// purpose; they are not part of the simulator.
			if info.Name() == "testdata" || info.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if !strings.Contains(line, "//lint:allow goroutinefree") {
				continue
			}
			if strings.HasPrefix(rel, filepath.Join("internal", "analysis")+string(filepath.Separator)) {
				// The analyzer's own docs and tests mention the directive.
				continue
			}
			t.Errorf("%s:%d: goroutinefree allow directive; simulation packages have no exception left", rel, i+1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
