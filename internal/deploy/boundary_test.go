package deploy_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestImportBoundaries keeps the deployment split honest for non-test
// files: the shared state knows no fabric and no tree; the memory store both
// fabrics use and the verb tap know nothing but the transport's types; the
// two fabrics — the simulator (rdma) and TCP — know nothing of each other
// and both import the store; and the tree and the migration engine above it
// name no fabric at all, so both run over any core.Backend. Across the module, only the
// simulator's deployment (cluster), the experiments that drive its fabric
// directly (bench) and the virtual lock manager (hocl) import the simulator;
// everything else spells the verb surface's types through transport.
func TestImportBoundaries(t *testing.T) {
	const mod = "sherman/internal/"
	for _, rule := range []struct {
		dir    string   // relative to this package
		banned []string // under sherman/internal/
		only   []string // when set, the only imports allowed under sherman/internal/
		needs  string   // under sherman/internal/, imported by some file
	}{
		{dir: ".", banned: []string{"cluster", "rdma", "sim", "core", "transport/tcp"}},
		{dir: "../memstore", only: []string{"transport"}},
		{dir: "../transport/tap", only: []string{"transport"}},
		{dir: "../transport/tcp", banned: []string{"cluster", "rdma", "sim"}, needs: "memstore"},
		{dir: "../rdma", banned: []string{"transport/tcp"}, needs: "memstore"},
		{dir: "../core", banned: []string{"cluster", "rdma"}},
		{dir: "../migrate", banned: []string{"cluster", "rdma", "sim"}},
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
			for _, path := range imports(t, file) {
				pkg, internal := strings.CutPrefix(path, mod)
				switch {
				case !internal:
				case pkg == rule.needs:
					needed = true
				case rule.only != nil && !slices.Contains(rule.only, pkg),
					slices.Contains(rule.banned, pkg):
					t.Errorf("%s imports %s", file, path)
				}
			}
		}
		if !needed {
			t.Errorf("%s: no file imports %s%s", rule.dir, mod, rule.needs)
		}
	}

	simImporters := []string{"internal/bench", "internal/cluster", "internal/hocl"}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); file != root && (name == "benchmark" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir // its own module, or not source
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		dir, _ := filepath.Rel(root, filepath.Dir(file))
		if slices.Contains(imports(t, file), mod+"rdma") && !slices.Contains(simImporters, filepath.ToSlash(dir)) {
			t.Errorf("%s imports %srdma; only %v may", file, mod, simImporters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// imports lists the import paths of one Go file.
func imports(t *testing.T, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		paths = append(paths, path)
	}
	return paths
}
