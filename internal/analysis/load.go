package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The file set and the source-form standard-library importer are shared
// by every Program loaded in a process: the importer re-type-checks the
// standard library from source (the only way to resolve imports without
// invoking the go tool or adding a dependency), which is far too costly
// to repeat per fixture package in tests.
var (
	sharedFset = token.NewFileSet()

	stdImporterOnce sync.Once
	stdImporter     types.Importer
)

func sourceImporter() types.Importer {
	stdImporterOnce.Do(func() {
		stdImporter = importer.ForCompiler(sharedFset, "source", nil)
	})
	return stdImporter
}

// FindModuleRoot walks up from dir to the directory containing go.mod and
// returns that directory and the declared module path.
func FindModuleRoot(dir string) (root, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule parses and type-checks every non-test package under root,
// which is treated as the root directory of a module named modulePath.
// Directories named testdata or vendor, and names starting with "." or
// "_", are skipped, matching the go tool's convention. Test files are not
// loaded: the invariants foam-lint enforces are production-code
// properties, and tests are free to allocate and compare floats.
func LoadModule(root, modulePath string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:       sharedFset,
		ModulePath: modulePath,
		RootDir:    root,
		byPath:     make(map[string]*Package),
	}

	type rawPkg struct {
		pkg     *Package
		imports []string
	}
	raw := make(map[string]*rawPkg)

	err = filepath.WalkDir(root, func(path string, d os.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		bp, ierr := build.ImportDir(path, 0)
		if ierr != nil {
			if _, ok := ierr.(*build.NoGoError); ok {
				return nil
			}
			return fmt.Errorf("%s: %w", path, ierr)
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		importPath := modulePath
		if rel != "." {
			importPath = modulePath + "/" + filepath.ToSlash(rel)
		}
		pkg := &Package{Path: importPath, Dir: path}
		for _, f := range bp.GoFiles {
			file, perr := parser.ParseFile(prog.Fset, filepath.Join(path, f), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if perr != nil {
				return perr
			}
			pkg.Files = append(pkg.Files, file)
		}
		raw[importPath] = &rawPkg{pkg: pkg, imports: bp.Imports}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("no Go packages under %s", root)
	}

	// Topological order over module-internal imports so each package's
	// dependencies are type-checked (and cached in prog.byPath) first.
	// The go tool guarantees acyclicity for code that builds; a cycle here
	// means the code would not compile, so it is a hard error.
	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(raw))
	var order []string
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("import cycle through %s", p)
		}
		state[p] = visiting
		deps := append([]string(nil), raw[p].imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			if _, ok := raw[dep]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p] = done
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	imp := &programImporter{prog: prog}
	for _, p := range order {
		pkg := raw[p].pkg
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		conf := types.Config{Importer: imp}
		tpkg, cerr := conf.Check(pkg.Path, prog.Fset, pkg.Files, info)
		if cerr != nil {
			return nil, fmt.Errorf("type-checking %s: %w", pkg.Path, cerr)
		}
		pkg.Types = tpkg
		pkg.Info = info
		prog.byPath[pkg.Path] = pkg
		prog.Packages = append(prog.Packages, pkg)
	}
	sort.Slice(prog.Packages, func(i, j int) bool { return prog.Packages[i].Path < prog.Packages[j].Path })

	prog.pragmas = collectPragmas(prog)
	prog.buildFuncIndex()
	return prog, nil
}

// programImporter resolves module-internal imports from the packages the
// Program already type-checked and everything else from standard-library
// source.
type programImporter struct {
	prog *Program
}

func (pi *programImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := pi.prog.byPath[path]; ok {
		return p.Types, nil
	}
	mod := pi.prog.ModulePath
	if path == mod || strings.HasPrefix(path, mod+"/") {
		return nil, fmt.Errorf("module package %s is not loaded (directory missing or has no non-test Go files)", path)
	}
	return sourceImporter().Import(path)
}
