package daemon

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSigsFileMustValidate: a -sigs file is held to what POST /publish
// holds a body to. A set with a null entry (which every engine compiling
// it would dereference) or an unknown kind (which would never match)
// stops each daemon that reads one at startup with the file's error:
// sigserver publishes nothing, so no watcher ever fetches it.
func TestSigsFileMustValidate(t *testing.T) {
	bodies := map[string]string{
		"null entry":   `{"signatures":[{"id":1,"tokens":["udid=f3a9c1d2"]},null]}`,
		"unknown kind": `{"signatures":[{"id":1,"kind":"fuzzy","tokens":["udid=f3a9c1d2"]}]}`,
	}
	daemons := map[string]func(sigs string) func(context.Context, io.Reader, io.Writer) error{
		"sigserver": func(sigs string) func(context.Context, io.Reader, io.Writer) error {
			return Sigserver{Addr: freeAddr(t), Sigs: sigs}.Run
		},
		"leakstream": func(sigs string) func(context.Context, io.Reader, io.Writer) error {
			return Leakstream{Sigs: sigs, Shards: 1, Affinity: "host", TenantBy: "app", RatePolicy: "drop", MaxTenants: 1024}.Run
		},
		"flowproxy": func(sigs string) func(context.Context, io.Reader, io.Writer) error {
			return Flowproxy{Addr: freeAddr(t), Sigs: sigs, Policy: "block"}.Run
		},
	}
	for what, body := range bodies {
		path := filepath.Join(t.TempDir(), "sigs.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		for name, run := range daemons {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			var out bytes.Buffer
			err := run(path)(ctx, strings.NewReader(""), &out)
			cancel()
			if err == nil || !strings.Contains(err.Error(), "reading signatures") {
				t.Errorf("%s -sigs with a %s: Run returned %v, want the file refused", name, what, err)
			}
			if strings.Contains(out.String(), "published") {
				t.Errorf("%s -sigs with a %s published it: %s", name, what, out.String())
			}
		}
	}
}
