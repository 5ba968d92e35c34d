package signature_test

import (
	"sort"
	"strings"
	"testing"

	"leaksig/internal/signature"
	"leaksig/internal/trafficgen"
)

// refStoplist is the stoplist as written, before any sorting.
var refStoplist = []string{
	"GET /", "POST /",
	" HTTP/1.1", " HTTP/1.0", "HTTP/1.",
	"http://", "https://",
	"Content-Type", "application/x-www-form-urlencoded",
	"User-Agent", "Mozilla/", "Dalvik/",
	"&", "=", "?", "; ",
}

// refInformativeLen is the informativeLen the once-sorted stoplist
// replaced: it copies the stoplist and sorts the copy longest first on
// every call.
func refInformativeLen(t string, stoplist []string) int {
	sorted := append([]string(nil), stoplist...)
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i]) > len(sorted[j]) })
	cur := t
	for {
		next := cur
		for _, s := range sorted {
			if s == "" {
				continue
			}
			next = strings.ReplaceAll(next, s, "")
		}
		if next == cur {
			break
		}
		cur = next
	}
	cur = strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '\r', '\n', '/', '.', ':', ';', ',':
			return -1
		}
		return r
	}, cur)
	return len(cur)
}

// TestInformativeLenMatchesPerCallSort checks that scoring against the
// stoplist sorted once at package load gives exactly what the per-call
// copy-and-sort gave, on every token extracted from the seed-1 dataset's
// destination clusters (its packets grouped by host), on every stoplist
// entry, on the entries concatenated, and on "".
func TestInformativeLenMatchesPerCallSort(t *testing.T) {
	byHost := map[string][][]byte{}
	for _, p := range trafficgen.Generate(trafficgen.Config{Seed: 1}).Capture.Packets {
		byHost[p.Host] = append(byHost[p.Host], p.Content())
	}
	inputs := append([]string{"", strings.Join(refStoplist, "")}, refStoplist...)
	for _, contents := range byHost {
		inputs = append(inputs, signature.ExtractTokens(contents)...)
	}
	if len(inputs) < 100 {
		t.Fatalf("only %d inputs: the dataset yielded too few tokens to compare on", len(inputs))
	}
	t.Logf("%d inputs from %d clusters", len(inputs), len(byHost))
	for _, tok := range inputs {
		if got, want := signature.InformativeLen(tok), refInformativeLen(tok, refStoplist); got != want {
			t.Errorf("informativeLen(%q) = %d, want %d", tok, got, want)
		}
	}
}
