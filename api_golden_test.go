package leaksig

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api/ from the current source")

// TestAPISurface pins every package's exported surface: one sorted line
// per exported identifier in testdata/api/<dir>.txt, for the root
// package (leaksig.txt) and every non-main package under internal/
// (internal/obs/trace is obs_trace.txt). An identifier added, dropped,
// renamed or re-typed fails here, so a surface change shows by name.
// Regenerate with `go test -run TestAPISurface . -update`.
//
// The counting rule: one entry per exported package-level func, type,
// const and var; per exported method of an exported type; per exported
// field of an exported struct type (embedded fields under their type's
// name); and per method of an exported interface type. Test files and
// package main are not counted.
func TestAPISurface(t *testing.T) {
	dirs := []string{"."}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if err == nil && d.IsDir() {
			dirs = append(dirs, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "api")
	want := map[string]bool{}
	for _, dir := range dirs {
		lines, ok := apiSurface(t, dir)
		if !ok {
			continue
		}
		name := "leaksig.txt"
		if dir != "." {
			name = strings.ReplaceAll(strings.TrimPrefix(filepath.ToSlash(dir), "internal/"), "/", "_") + ".txt"
		}
		want[name] = true
		got := strings.Join(lines, "\n") + "\n"
		path := filepath.Join(golden, name)
		if *update {
			if err := os.MkdirAll(golden, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		old, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: no golden (%v); run go test -run TestAPISurface . -update", dir, err)
			continue
		}
		if string(old) != got {
			t.Errorf("%s: exported surface differs from %s\n%s", dir, path, lineDiff(string(old), got))
		}
	}
	entries, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if want[e.Name()] {
			continue
		}
		if *update {
			os.Remove(filepath.Join(golden, e.Name()))
			continue
		}
		t.Errorf("%s names no package; run go test -run TestAPISurface . -update", filepath.Join(golden, e.Name()))
	}
}

// apiSurface returns the sorted surface lines of the non-test files in
// dir, and false when dir holds no Go package or only package main.
func apiSurface(t *testing.T, dir string) ([]string, bool) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	found := false
	for name, pkg := range pkgs {
		if name == "main" {
			continue
		}
		found = true
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				lines = append(lines, declSurface(decl)...)
			}
		}
	}
	sort.Strings(lines)
	return lines, found
}

func declSurface(decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		sig := typeParams(d.Type.TypeParams) + strings.TrimPrefix(types.ExprString(d.Type), "func")
		if d.Recv == nil {
			return []string{"func " + d.Name.Name + sig}
		}
		recv := d.Recv.List[0].Type
		base := recv
		if star, ok := base.(*ast.StarExpr); ok {
			base = star.X
		}
		switch b := base.(type) {
		case *ast.IndexExpr:
			base = b.X
		case *ast.IndexListExpr:
			base = b.X
		}
		if id, ok := base.(*ast.Ident); !ok || !id.IsExported() {
			return nil
		}
		return []string{"method (" + types.ExprString(recv) + ") " + d.Name.Name + sig}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				kind := "var "
				if d.Tok == token.CONST {
					kind = "const "
				}
				for _, n := range s.Names {
					if !n.IsExported() {
						continue
					}
					line := kind + n.Name
					if s.Type != nil {
						line += " " + types.ExprString(s.Type)
					}
					out = append(out, line)
				}
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				name := s.Name.Name
				if s.Assign.IsValid() {
					out = append(out, "type "+name+" = "+types.ExprString(s.Type))
					continue
				}
				switch st := s.Type.(type) {
				case *ast.StructType:
					out = append(out, "type "+name+typeParams(s.TypeParams)+" struct")
					for _, f := range st.Fields.List {
						typ := types.ExprString(f.Type)
						if len(f.Names) == 0 {
							if n := embeddedName(f.Type); ast.IsExported(n) {
								out = append(out, "field "+name+"."+n+" embedded "+typ)
							}
							continue
						}
						for _, n := range f.Names {
							if n.IsExported() {
								out = append(out, "field "+name+"."+n.Name+" "+typ)
							}
						}
					}
				case *ast.InterfaceType:
					out = append(out, "type "+name+typeParams(s.TypeParams)+" interface")
					for _, m := range st.Methods.List {
						if len(m.Names) == 0 {
							out = append(out, "method "+name+" embeds "+types.ExprString(m.Type))
							continue
						}
						for _, n := range m.Names {
							out = append(out, "method "+name+"."+n.Name+strings.TrimPrefix(types.ExprString(m.Type), "func"))
						}
					}
				default:
					out = append(out, "type "+name+typeParams(s.TypeParams)+" "+types.ExprString(s.Type))
				}
			}
		}
	}
	return out
}

func typeParams(fl *ast.FieldList) string {
	if fl == nil || len(fl.List) == 0 {
		return ""
	}
	var parts []string
	for _, f := range fl.List {
		var names []string
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
		parts = append(parts, strings.Join(names, ", ")+" "+types.ExprString(f.Type))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func embeddedName(x ast.Expr) string {
	switch e := x.(type) {
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return embeddedName(e.X)
	case *ast.IndexListExpr:
		return embeddedName(e.X)
	}
	return ""
}

// lineDiff lists the lines only one side has, "-" for the golden's and
// "+" for the source's.
func lineDiff(old, cur string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	o, c := in(old), in(cur)
	var b strings.Builder
	for _, l := range strings.Split(old, "\n") {
		if !c[l] {
			b.WriteString("-" + l + "\n")
		}
	}
	for _, l := range strings.Split(cur, "\n") {
		if !o[l] {
			b.WriteString("+" + l + "\n")
		}
	}
	return b.String()
}
