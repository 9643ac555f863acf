// Command reach is the repository's reachability gate. It reports
// every function and method declared in the non-test files of
// internal/ and mdqa/ that no shipped code can call.
//
// The shipped code is a set of roots: every package main of the module
// (cmd/*, examples/*, ci/*), the perfbench module, and a generated
// main that takes a function value or method expression of every
// exported mdqa identifier, the exported methods of the internal types
// mdqa aliases included. reach links each root with
// -ldflags=-dumpdep, which prints one line for every symbol the
// linker's dead-code pass marks reachable. That pass is the one that
// strips every shipped binary, and it follows interface dispatch and
// reflection exactly, so reach carries no call graph of its own.
// Inlining is off (-gcflags=all=-l): an inlined callee leaves no
// symbol behind. The pass keeps every method of a type it marks
// <UsedInIface> whose name and signature match a method some
// interface in the binary has (Reset(), Len() int), so reach cannot
// see such a method go uncalled.
//
// A declaration may stay unreached when ci/reach/allow.txt names it.
// The file takes one entry a line, the name as reach prints it and
// then the reason it stays:
//
//	internal/pkg.Type.Method  the reason it stays
//
// reach exits 1 when it reports anything and 2 when it cannot check,
// and its last line is the number of non-test Go lines outside
// perfbench.
//
// Usage, from the repository root:
//
//	go run ./ci/reach
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// allowFile lists the declarations that may stay unreached.
const allowFile = "ci/reach/allow.txt"

// mdqaRoot is where the generated mdqa root lives, in the build's
// overlay only.
const mdqaRoot = "ci/reach/_mdqaroot"

func main() {
	os.Exit(run(".", os.Stdout, os.Stderr))
}

// run checks the repository at root, reporting on stdout, and returns
// the exit status: 0 when every declaration is reached or allowed, 1
// when some are not, 2 when the check itself failed.
func run(root string, stdout, stderr io.Writer) int {
	report, err := check(root)
	if err != nil {
		fmt.Fprintln(stderr, "reach:", err)
		return 2
	}
	lines, err := countLines(root)
	if err != nil {
		fmt.Fprintln(stderr, "reach:", err)
		return 2
	}
	for _, line := range report {
		fmt.Fprintln(stdout, line)
	}
	if len(report) > 0 {
		fmt.Fprintf(stdout, "reach: %d reported\n", len(report))
	}
	fmt.Fprintf(stdout, "reach: %d non-test Go lines outside perfbench\n", lines)
	if len(report) > 0 {
		return 1
	}
	return 0
}

// decl is one function or method declaration in scope.
type decl struct {
	name    string // internal/quality.Session.Apply
	file    string // internal/quality/quality.go
	line    int
	reached bool
}

// check returns one line per unreached declaration the allowlist does
// not name.
func check(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	allowed, err := readAllow(filepath.Join(root, allowFile))
	if err != nil {
		return nil, err
	}
	decls := map[string]*decl{} // keyed by the name the linker gives the code
	for _, dir := range []string{"internal", "mdqa"} {
		if err := declare(root, dir, module, decls); err != nil {
			return nil, err
		}
	}
	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	overlay, err := writeMdqaRoot(root, module, tmp)
	if err != nil {
		return nil, err
	}
	mark := func(sym string) {
		if d := declOf(decls, sym); d != nil {
			d.reached = true
		}
	}
	link := []string{"build", "-gcflags=all=-l", "-ldflags=-dumpdep"}
	if err := linkDump(root, mark, append(link, "-overlay", overlay, "-o", tmp+"/bin/", "./...", "./"+mdqaRoot)...); err != nil {
		return nil, err
	}
	if err := linkDump(filepath.Join(root, "perfbench"), mark, append(link, "-o", tmp+"/perfbench/", "./...")...); err != nil {
		return nil, err
	}

	var unreached []*decl
	for _, d := range decls {
		if !d.reached && !allowed[d.name] {
			unreached = append(unreached, d)
		}
	}
	sort.Slice(unreached, func(i, j int) bool {
		a, b := unreached[i], unreached[j]
		return a.file < b.file || a.file == b.file && a.line < b.line
	})
	var report []string
	for _, d := range unreached {
		report = append(report, fmt.Sprintf("%s:%d: %s", d.file, d.line, d.name))
	}
	return report, nil
}

// readAllow reads the allowlist: a name and its reason a line, with
// blank lines and lines starting with # skipped.
func readAllow(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allowed := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) == 1 {
			return nil, fmt.Errorf("%s:%d: %s gives no reason", allowFile, i+1, f[0])
		}
		allowed[f[0]] = true
	}
	return allowed, nil
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod names no module", root)
}

// declare adds every function and method declared in the non-test Go
// files under root/dir to decls, keyed by the name the linker gives
// it: the import path, then the receiver's type, then the name.
func declare(root, dir, module string, decls map[string]*decl) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(filepath.Join(root, dir), func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if e.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		pkg := filepath.ToSlash(filepath.Dir(rel))
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvType(fn.Recv.List[0].Type) + "." + name
			}
			decls[module+"/"+pkg+"."+name] = &decl{
				name: pkg + "." + name,
				file: filepath.ToSlash(rel),
				line: fset.Position(fn.Pos()).Line,
			}
		}
		return nil
	})
}

// recvType returns the name of a receiver's base type: T for T, *T,
// T[K] and *T[K].
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// writeMdqaRoot writes a main package that takes a function value or
// method expression of every exported identifier of root's mdqa
// package, and the overlay that places it at mdqaRoot, into tmp. It
// returns the overlay's path.
func writeMdqaRoot(root, module, tmp string) (string, error) {
	pkg, err := loadTypes(root, module+"/mdqa")
	if err != nil {
		return "", err
	}
	var src bytes.Buffer
	fmt.Fprintf(&src, "package main\n\nimport \"%s/mdqa\"\n\nvar roots = []any{\n", module)
	for _, name := range pkg.Scope().Names() {
		switch obj := pkg.Scope().Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				fmt.Fprintf(&src, "\tmdqa.%s,\n", name)
			}
		case *types.Var:
			if obj.Exported() {
				fmt.Fprintf(&src, "\t&mdqa.%s,\n", name)
			}
		case *types.TypeName:
			if !obj.Exported() || types.IsInterface(obj.Type()) {
				continue
			}
			// The pointer's method set holds the value methods too, and
			// the methods an alias's internal type declares.
			ms := types.NewMethodSet(types.NewPointer(obj.Type()))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					fmt.Fprintf(&src, "\t(*mdqa.%s).%s,\n", name, m.Name())
				}
			}
		}
	}
	src.WriteString("}\n\nfunc main() { println(len(roots)) }\n")
	gen := filepath.Join(tmp, "mdqaroot.go")
	if err := os.WriteFile(gen, src.Bytes(), 0o644); err != nil {
		return "", err
	}
	overlay, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(root, mdqaRoot, "main.go"): gen},
	})
	if err != nil {
		return "", err
	}
	path := filepath.Join(tmp, "overlay.json")
	return path, os.WriteFile(path, overlay, 0o644)
}

// loadTypes type-checks the package at path from the export data `go
// list -export` leaves in the build cache.
func loadTypes(root, path string) (*types.Package, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}", path)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", path, err, stderr.Bytes())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, file, _ := strings.Cut(line, " ")
		exports[p] = file
	}
	imp := importer.ForCompiler(token.NewFileSet(), "gc", func(p string) (io.ReadCloser, error) {
		return os.Open(exports[p])
	})
	return imp.Import(path)
}

// linkDump runs go with args in dir and passes mark the name of every
// symbol a -dumpdep link marks reachable.
func linkDump(dir string, mark func(sym string), args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	var other []string // the first lines go printed besides the dump, for the error
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if _, to, ok := strings.Cut(sc.Text(), " -> "); ok {
			mark(to)
		} else if len(other) < 20 {
			other = append(other, sc.Text())
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, strings.Join(other, "\n"))
	}
	return scanErr
}

// declOf returns the declaration whose code a linker symbol is, or nil
// when it is none in decls. A closure (F.func1, F.func1.2), a deferred
// or go wrapper, a method value (T.M-fm) and a generic instantiation
// (F[go.shape.int]) map to the function that declares them, and a
// pointer receiver's star is dropped. Auxiliary symbols map to
// nothing: the linker dedups them by content, and -dumpdep names each
// after whichever function's copy it kept.
func declOf(decls map[string]*decl, sym string) *decl {
	sym = stripBrackets(sym)
	sym, _, _ = strings.Cut(sym, " ") // flags such as " <UsedInIface>"
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return nil
	}
	pkg, rest := sym[:slash+1+dot], sym[slash+2+dot:]
	rest = strings.TrimSuffix(rest, "-fm")
	if strings.HasPrefix(rest, "(*") {
		if i := strings.Index(rest, ")"); i > 0 {
			rest = rest[2:i] + rest[i+1:]
		}
	}
	parts := strings.Split(rest, ".")
	switch last := parts[len(parts)-1]; {
	case strings.HasPrefix(last, "arginfo"), last == "argliveinfo", last == "stkobj", last == "opendefer", last == "wrapinfo":
		return nil
	}
	if len(parts) > 1 {
		if d := decls[pkg+"."+parts[0]+"."+parts[1]]; d != nil {
			return d // T.M, or a closure in it
		}
	}
	return decls[pkg+"."+parts[0]] // F, or a closure in it
}

// stripBrackets drops the bracketed parts of a symbol name: the type
// arguments of a generic instantiation.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// countLines returns the number of lines in the non-test Go files
// under root, outside perfbench, testdata and hidden directories.
func countLines(root string) (int, error) {
	n := 0
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			name := e.Name()
			if path != root && (name == "testdata" || name == "perfbench" && filepath.Dir(path) == root ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		n += bytes.Count(data, []byte("\n"))
		return err
	})
	return n, err
}
