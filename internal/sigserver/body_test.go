package sigserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"leaksig/internal/signature"
)

// TestPublishReadsOnlyTheFirstValue pins what a publish does with bytes
// after a complete set inside the body bound, as it always has: the set
// is the body's first JSON value and the rest is not examined.
func TestPublishReadsOnlyTheFirstValue(t *testing.T) {
	s := New()
	body := `{"signatures":[{"id":1,"tokens":["udid="]}]}garbage {"version":9}`
	rec := httptest.NewRecorder()
	s.HandlerWithPublish("").ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/publish", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("publish answered %d: %s", rec.Code, rec.Body)
	}
	if set, v := s.Current(); v != 1 || set.Len() != 1 || set.Signatures[0].Tokens[0] != "udid=" {
		t.Fatalf("installed version %d with %d signatures, want the first value at version 1", v, set.Len())
	}
}

// TestPublishOverBoundRefusedAfterACompleteSet: a body over
// maxPublishBytes is refused with 413 even when a complete set comes
// first, whether the body declares its length or not. (When the decoder
// read the body as a stream, such a body was accepted whenever the set
// ended before the read that crossed the bound.)
func TestPublishOverBoundRefusedAfterACompleteSet(t *testing.T) {
	set := `{"signatures":[{"id":1,"tokens":["udid="]}]}`
	for _, declared := range []bool{true, false} {
		body := io.MultiReader(strings.NewReader(set), io.LimitReader(zeros{}, maxPublishBytes))
		req := httptest.NewRequest(http.MethodPost, "/publish", body)
		req.ContentLength = -1
		if declared {
			req.ContentLength = int64(len(set)) + maxPublishBytes
		}
		s := New()
		rec := httptest.NewRecorder()
		s.HandlerWithPublish("").ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("declared=%v: publish answered %d, want 413", declared, rec.Code)
		}
		if _, v := s.Current(); v != 0 {
			t.Fatalf("declared=%v: refused publish installed version %d", declared, v)
		}
	}
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestWatchKeepsLastGoodSetOnInvalidFetch: a server that serves a set
// failing Validate — here a null entry, which no engine can compile —
// makes the fetch fail. The watcher never delivers it and keeps
// retrying, so its caller keeps the last good set.
func TestWatchKeepsLastGoodSetOnInvalidFetch(t *testing.T) {
	var fetches atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /signatures", func(w http.ResponseWriter, r *http.Request) {
		if fetches.Add(1) == 1 {
			set := testSet("tok-one")
			set.Version = 1
			set.WriteJSON(w)
			return
		}
		fmt.Fprint(w, `{"version":2,"signatures":[{"id":0,"tokens":["tok-two"]},null]}`)
	})
	mux.HandleFunc("GET /wait", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "2")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	if _, _, err := NewClient(ts.URL, nil).Fetch(context.Background()); err != nil {
		t.Fatalf("first fetch: %v", err)
	}
	if set, _, err := NewClient(ts.URL, nil).Fetch(context.Background()); err == nil {
		t.Fatalf("fetch returned a set with a null entry: %d signatures", set.Len())
	}

	fetches.Store(0)
	c := NewClient(ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered []int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Watch(ctx, 10*time.Millisecond, func(s *signature.Set) { delivered = append(delivered, s.Version) })
	}()
	for deadline := time.Now().Add(10 * time.Second); fetches.Load() < 4 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	if fetches.Load() < 4 {
		t.Fatalf("watch fetched %d times, want retries after the invalid set", fetches.Load())
	}
	if len(delivered) != 1 || delivered[0] != 1 {
		t.Fatalf("watch delivered versions %v, want only the valid version 1", delivered)
	}
}

// TestFetchRefusesOversizedBody: a set body over maxFetchBytes is
// refused before it is buffered, whether the server declares its length
// or streams it.
func TestFetchRefusesOversizedBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.FormatInt(maxFetchBytes+1, 10))
		w.Write([]byte(`{"signatures":[`))
	}))
	defer ts.Close()
	if _, _, err := NewClient(ts.URL, nil).Fetch(context.Background()); !errors.Is(err, errBodyTooLarge) {
		t.Fatalf("fetch of a declared %d-byte body: err = %v, want errBodyTooLarge", maxFetchBytes+1, err)
	}

	// An undeclared length is read up to the bound and no further.
	const limit = 1 << 10
	r := &countingReader{r: io.LimitReader(zeros{}, 4*limit)}
	if _, err := readBody(r, -1, limit); !errors.Is(err, errBodyTooLarge) {
		t.Fatalf("readBody of a streamed body over the bound: err = %v, want errBodyTooLarge", err)
	}
	if r.n > limit+1 {
		t.Fatalf("readBody read %d bytes of a body over its %d-byte bound", r.n, limit)
	}
	if b, err := readBody(bytes.NewReader(make([]byte, limit)), -1, limit); err != nil || len(b) != limit {
		t.Fatalf("readBody of a body at the bound = %d bytes, %v", len(b), err)
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}
