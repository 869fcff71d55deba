package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// These tests pin the experiment registry without running an experiment.

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.id] || e.id == "all" {
			t.Errorf("experiment id %q is taken twice or shadows all", e.id)
		}
		seen[e.id] = true
		if e.run == nil {
			t.Errorf("experiment %q has no run", e.id)
		}
	}
}

func TestAllIsThePaperAndTheSimulatedExtensions(t *testing.T) {
	want := []string{"table1", "table2", "fig2", "fig3", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15a", "fig15b", "fig15c", "fig16",
		"batch", "pipeline", "faults", "elastic", "cache", "alloc", "replica"}
	sel, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range sel {
		got = append(got, e.id)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("-exp all runs %v, want %v", got, want)
	}
}

func TestReadmeListsTheRegistry(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("Experiment ids: `([^`]*)`").FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md has no \"Experiment ids: `...`\" list")
	}
	if got := strings.Fields(string(m[1])); !slices.Equal(got, ids(false)) {
		t.Fatalf("README lists %v, the registry has %v", got, ids(false))
	}
}

// TestEveryExperimentIsReadByACheck keeps experiments that nothing reads
// out of the registry: an id that is not one of the paper's tables or
// figures must have a -check gate or be run by a CI step's -exp list.
func TestEveryExperimentIsReadByACheck(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	inCI := map[string]bool{}
	for _, m := range regexp.MustCompile(`-exp ([\w,]+)`).FindAllSubmatch(ci, -1) {
		for _, id := range strings.Split(string(m[1]), ",") {
			inCI[id] = true
		}
	}
	if len(inCI) == 0 {
		t.Fatal("ci.yml names no -exp step")
	}
	for _, e := range experiments {
		paper := strings.HasPrefix(e.id, "table") || strings.HasPrefix(e.id, "fig")
		if !paper && e.gate == "" && !inCI[e.id] {
			t.Errorf("experiment %q is not from the paper, has no -check gate and no CI step runs it", e.id)
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	for _, spec := range []string{"tcp", "quick", "fig10,nope"} {
		_, err := selectExperiments(spec)
		if err == nil {
			t.Fatalf("-exp %s accepted", spec)
		}
		for _, id := range append(ids(false), "all") {
			if !strings.Contains(err.Error(), " "+id) {
				t.Errorf("-exp %s: error %q does not list %q", spec, err, id)
			}
		}
	}
	if sel, err := selectExperiments("fig10, tcppipe"); err != nil || len(sel) != 2 || sel[1].id != "tcppipe" {
		t.Fatalf("-exp fig10,tcppipe = %v, %v", sel, err)
	}
}
