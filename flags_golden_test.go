package leaksig

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestDaemonFlagSurface pins the operator-facing surface of the four
// daemons: every flag's name, default and usage, as `<daemon> -h` prints
// them. testdata/flags/ was generated at the commit before the mains
// became config fills over internal/daemon; a flag added, dropped,
// renamed or re-worded fails here. The "Usage of <path>:" first line is
// left out — it names the binary's location.
func TestDaemonFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the four daemons")
	}
	daemons := []string{"leakstream", "siggend", "flowproxy", "sigserver"}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, d := range daemons {
		args = append(args, "./cmd/"+d)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, d := range daemons {
		t.Run(d, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "flags", d+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command(filepath.Join(bin, d), "-h").CombinedOutput()
			if err != nil {
				t.Fatalf("%s -h: %v\n%s", d, err, got)
			}
			_, got, _ = bytes.Cut(got, []byte("\n"))
			if !bytes.Equal(got, want) {
				t.Fatalf("%s -h differs from testdata/flags/%s.txt\n got:\n%s\nwant:\n%s", d, d, got, want)
			}
		})
	}
}
