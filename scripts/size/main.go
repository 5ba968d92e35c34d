// Command size prints the numbers a simplification is judged by: the
// non-test code lines in internal/, cmd/ and leaksig.go, comments and
// blank lines excluded; the number of exported-API entries pinned in
// testdata/api/ (see TestAPISurface); and the number of independently
// settable values, counted as the fields of exported *Config and
// *Options types in testdata/api/ plus the daemon flags pinned in
// testdata/flags/ (see TestDaemonFlagSurface). Run it from the module
// root:
//
//	go run ./scripts/size
package main

import (
	"bufio"
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	log.SetFlags(0)
	files := []string{"leaksig.go"}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	code := 0
	for _, f := range files {
		n, err := codeLines(f)
		if err != nil {
			log.Fatal(err)
		}
		code += n
	}
	api, err := countLines(filepath.Join("testdata", "api"), regexp.MustCompile(`.`))
	if err != nil {
		log.Fatal(err)
	}
	fields, err := countLines(filepath.Join("testdata", "api"), regexp.MustCompile(`^field [A-Za-z0-9_]*(Config|Options)\.`))
	if err != nil {
		log.Fatal(err)
	}
	flags, err := countLines(filepath.Join("testdata", "flags"), regexp.MustCompile(`^  -`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("code lines (internal/, cmd/, leaksig.go; no tests, comments or blanks): %d\n", code)
	fmt.Printf("exported API entries (testdata/api/): %d\n", api)
	fmt.Printf("options (*Config/*Options fields in testdata/api/ + daemon flags in testdata/flags/): %d config options + %d flags = %d\n",
		fields, flags, fields+flags)
}

// codeLines counts the lines of path that hold part of a token other
// than a comment; a raw string spanning lines counts every line it spans.
func codeLines(path string) (int, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	file := fset.AddFile(path, -1, len(src))
	var errs scanner.ErrorList
	var s scanner.Scanner
	s.Init(file, src, func(pos token.Position, msg string) { errs.Add(pos, msg) }, 0)
	lines := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue // inserted at a line end, not written
		}
		first := file.Line(pos)
		last := first + strings.Count(lit, "\n")
		for l := first; l <= last; l++ {
			lines[l] = true
		}
	}
	return len(lines), errs.Err()
}

// countLines counts the lines of every golden file in dir that match re.
func countLines(dir string, re *regexp.Regexp) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if re.MatchString(sc.Text()) {
				n++
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return 0, err
		}
	}
	return n, nil
}
