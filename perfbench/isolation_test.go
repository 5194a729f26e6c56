package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// allowedImports are the layer entry points the benchmark may call. It
// never imports tsload, cmd/*, internal/engine or internal/hist, so a
// change to a driver or a harness cannot silently change what the
// benchmark measures.
var allowedImports = []string{
	"tsspace",
	"tsspace/tsserve",
	"tsspace/internal/register",
	"tsspace/internal/snapshot",
	"tsspace/internal/timestamp/collect",
	"tsspace/internal/timestamp/sqrt",
}

func TestImportsOnlyLayerEntryPoints(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			first, _, _ := strings.Cut(path, "/")
			if first == "tsspace" && !slices.Contains(allowedImports, path) {
				t.Errorf("%s imports %s; the benchmark may import only %v", name, path, allowedImports)
			}
			if first != "tsspace" && strings.Contains(first, ".") {
				t.Errorf("%s imports %s, outside the standard library", name, path)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// command prints in step; BENCHMARK.json lists the gated workloads.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		if !w.ungated {
			want = append(want, w.name)
		}
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	for _, set := range []struct {
		json []struct{ Name, Unit string }
		code []metric
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.json) != len(set.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the command prints %d", len(set.json), len(set.code))
			continue
		}
		for i, m := range set.json {
			if m.Name != set.code[i].name || m.Unit != set.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], command %s [%s]", i, m.Name, m.Unit, set.code[i].name, set.code[i].unit)
			}
		}
	}
}
