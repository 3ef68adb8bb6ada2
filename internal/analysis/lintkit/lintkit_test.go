package lintkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, f
}

func TestParseDirectives(t *testing.T) {
	src := `package p

//lint:allow guardgo panics are isolated in the batch runner
func a() {}

//lint:allow floateq
func b() {}

//lint:allow
func c() {}

//lint:allowed is some other tool's marker
func d() {}

func e() {} //lint:allow determinism trailing form with a reason
`
	fset, f := parseSrc(t, src)
	ds := ParseDirectives(fset, f)
	if len(ds) != 4 {
		t.Fatalf("got %d directives, want 4: %+v", len(ds), ds)
	}
	if ds[0].Analyzer != "guardgo" || ds[0].Reason == "" || ds[0].Malformed != "" {
		t.Errorf("directive 0 = %+v, want well-formed guardgo", ds[0])
	}
	if ds[1].Analyzer != "floateq" || !strings.Contains(ds[1].Malformed, "missing reason") {
		t.Errorf("directive 1 = %+v, want missing-reason malformed", ds[1])
	}
	if !strings.Contains(ds[2].Malformed, "missing analyzer name") {
		t.Errorf("directive 2 = %+v, want missing-name malformed", ds[2])
	}
	if ds[3].Analyzer != "determinism" || ds[3].Malformed != "" {
		t.Errorf("directive 3 = %+v, want trailing determinism", ds[3])
	}
}

// toyAnalyzer reports once on every function declaration name; enough to
// exercise suppression, directive validation and finding ordering
// end-to-end without touching real analyzers.
var toyAnalyzer = &Analyzer{
	Name: "toy",
	Doc:  "reports every function declaration",
	Run: func(pass *Pass) (any, error) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Name.Pos(), "function %s", fd.Name.Name)
				}
			}
		}
		return nil, nil
	},
}

func TestRunAnalyzersSuppressionAndDirectiveValidation(t *testing.T) {
	src := `package p

func plain() {}

func trailing() {} //lint:allow toy covered by the trailing form

//lint:allow toy covered by the standalone form above the decl
func above() {}

//lint:allow nosuch this directive names an unknown analyzer
func unknown() {}

//lint:allow toy
func noreason() {}
`
	dir := t.TempDir()
	fn := filepath.Join(dir, "fixture.go")
	if err := os.WriteFile(fn, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkg, err := CheckFiles(fset, NewImporter(fset), "example/toy", []string{fn})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("fixture has type errors: %v", pkg.TypeErrors)
	}
	findings, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{toyAnalyzer})
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+":"+f.Message)
	}
	want := map[string]bool{
		// plain is reported; trailing and above are suppressed.
		"toy:function plain": true,
		// the unknown-name directive does not suppress toy, and is itself
		// reported by the directive pseudo-check.
		"toy:function unknown": true,
		DirectiveCheckName + `://lint:allow names unknown analyzer "nosuch"`: true,
		// a reason-less directive is malformed AND does not suppress.
		"toy:function noreason": true,
	}
	for _, g := range got {
		if strings.Contains(g, "malformed //lint:allow") {
			delete(want, "malformed")
			continue
		}
		if !want[g] {
			t.Errorf("unexpected finding: %s", g)
		}
		delete(want, g)
	}
	for w := range want {
		if w != "malformed" {
			t.Errorf("missing finding: %s", w)
		}
	}
	// Findings must arrive sorted by position.
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1].Position, findings[i].Position
		if a.Filename == b.Filename && a.Line > b.Line {
			t.Errorf("findings out of order: %v before %v", a, b)
		}
	}
}

func TestRunAnalyzersSurfacesTypeErrors(t *testing.T) {
	src := "package p\n\nfunc broken() { return undefinedIdent }\n"
	dir := t.TempDir()
	fn := filepath.Join(dir, "fixture.go")
	if err := os.WriteFile(fn, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkg, err := CheckFiles(fset, NewImporter(fset), "example/broken", []string{fn})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{toyAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	sawTypecheck := false
	for _, f := range findings {
		if f.Analyzer != "typecheck" {
			continue
		}
		sawTypecheck = true
		// The finding is positioned at the error, and its message holds
		// no path: it prints as file:line:col: msg and sorts with its file.
		if f.Position.Filename != fn || f.Position.Line != 3 {
			t.Errorf("typecheck finding at %v, want %s:3", f.Position, fn)
		}
		if strings.Contains(f.Message, "fixture.go") || !strings.Contains(f.Message, "undefinedIdent") {
			t.Errorf("typecheck message %q: want the checker's message without a path", f.Message)
		}
	}
	if !sawTypecheck {
		t.Errorf("type error not surfaced as a typecheck finding: %v", findings)
	}
}

func TestLoadRealPackage(t *testing.T) {
	pkgs, err := Load("leapme/internal/mathx")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.ImportPath != "leapme/internal/mathx" || p.Pkg == nil || len(p.Files) == 0 {
		t.Errorf("loaded package incomplete: %+v", p)
	}
	if len(p.TypeErrors) != 0 {
		t.Errorf("mathx should type-check cleanly, got %v", p.TypeErrors)
	}
}
