package deploy_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportBoundaries keeps the deployment split honest for non-test
// files: the shared state knows no fabric and no tree, the TCP fabric knows
// nothing of the simulator, and in core only migrate.go — home of
// Tree.Cluster(), the one sim-only escape hatch — names internal/cluster.
func TestImportBoundaries(t *testing.T) {
	const mod = "sherman/internal/"
	for _, rule := range []struct {
		dir    string   // relative to this package
		banned []string // under sherman/internal/
		except string   // the one file allowed to import them
	}{
		{".", []string{"cluster", "rdma", "sim", "core", "transport/tcp"}, ""},
		{"../transport/tcp", []string{"cluster", "rdma", "sim"}, ""},
		{"../core", []string{"cluster"}, "migrate.go"},
	} {
		files, err := filepath.Glob(filepath.Join(rule.dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", rule.dir, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") || filepath.Base(file) == rule.except {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				for _, b := range rule.banned {
					if path == mod+b {
						t.Errorf("%s imports %s", file, path)
					}
				}
			}
		}
	}
}
