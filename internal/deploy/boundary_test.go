package deploy_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestImportBoundaries keeps the deployment split honest for non-test
// files: the shared state knows no fabric and no tree; the memory store both
// fabrics use knows nothing but the transport's types; the two fabrics —
// the simulator (rdma) and TCP — know nothing of each other and both import
// the store; and in core only migrate.go — home of Tree.Cluster(), the one
// sim-only escape hatch — names internal/cluster.
func TestImportBoundaries(t *testing.T) {
	const mod = "sherman/internal/"
	for _, rule := range []struct {
		dir    string   // relative to this package
		banned []string // under sherman/internal/
		only   []string // when set, the only imports allowed under sherman/internal/
		needs  string   // under sherman/internal/, imported by some file
		except string   // the one file allowed to import banned packages
	}{
		{dir: ".", banned: []string{"cluster", "rdma", "sim", "core", "transport/tcp"}},
		{dir: "../memstore", only: []string{"transport"}},
		{dir: "../transport/tcp", banned: []string{"cluster", "rdma", "sim"}, needs: "memstore"},
		{dir: "../rdma", banned: []string{"transport/tcp"}, needs: "memstore"},
		{dir: "../core", banned: []string{"cluster"}, except: "migrate.go"},
	} {
		files, err := filepath.Glob(filepath.Join(rule.dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", rule.dir, err)
		}
		needed := rule.needs == ""
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				pkg, internal := strings.CutPrefix(path, mod)
				switch {
				case !internal:
				case pkg == rule.needs:
					needed = true
				case rule.only != nil && !slices.Contains(rule.only, pkg),
					slices.Contains(rule.banned, pkg) && filepath.Base(file) != rule.except:
					t.Errorf("%s imports %s", file, path)
				}
			}
		}
		if !needed {
			t.Errorf("%s: no file imports %s%s", rule.dir, mod, rule.needs)
		}
	}
}
