package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, through the
// built binaries and checks that each emits exactly the metrics
// BENCHMARK.json names, with their units.  It builds lotusx-server, so it is
// skipped under -short.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, b := range []struct{ dir, out string }{{"..", "lotusx-server"}, {".", "loadbench"}} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, b.out), ".")
		if b.dir == ".." {
			cmd.Args[len(cmd.Args)-1] = "./cmd/lotusx-server"
		}
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b.out, err, out)
		}
	}
	// Short runs that still send every operation class in the open loop.
	seconds := map[string]int{"session": 3, "search": 8, "router": 6}
	for name, secs := range seconds {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			cmd := exec.Command(filepath.Join(bin, "loadbench"), "--server", filepath.Join(bin, "lotusx-server"),
				"--out", t.TempDir(), "--workload", name, "--seed", "5", "--seconds", strconv.Itoa(secs), "--trace", strconv.Itoa(trace))
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s%s", name, trace, err, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want unit %s", name, trace, m.Name, got, ok, m.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
				if !strings.Contains(stdout.String(), "metric "+m.Name+" ") {
					t.Errorf("%s trace=%d: no printed line for %s", name, trace, m.Name)
				}
			}
		}
	}
}
