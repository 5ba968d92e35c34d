package sigserver

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"leaksig/internal/signature"
)

// FuzzPublishBody posts arbitrary bodies to both publish routes of a
// fresh in-process server. A publish must never panic and may answer
// only 200, 400, 409 or 413; an accepted one must fetch back as a set
// that passes Validate and carries exactly the signature keys the body
// decodes to.
func FuzzPublishBody(f *testing.F) {
	var written bytes.Buffer
	set := &signature.Set{TrainingSize: 4, Signatures: []*signature.Signature{
		{ID: 1, Tokens: []string{"udid=", "f3a9c1d2"}, HostSuffix: "ads.example", ClusterSize: 3},
	}}
	if err := set.WriteJSON(&written); err != nil {
		f.Fatal(err)
	}
	f.Add(written.Bytes())
	f.Add([]byte(`{"version":7,"signatures":[{"id":1,"kind":"subsequence","tokens":["GET /t","imei="]},` +
		`{"id":2,"kind":"conjunction","tokens":["aid="],"views":["base64"]}]}`))
	f.Add([]byte(`{"signatures":[{"id":1,"kind":"fuzzy","tokens":["x"]}]}`))
	f.Add([]byte(`{"signatures":[null]}`))
	f.Add([]byte(`{"version":-3,"signatures":[]}`))
	f.Add(written.Bytes()[:written.Len()/2])
	f.Add([]byte(`{"signatures":[{"id":1,"tokens":["a`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, route := range []struct{ publish, fetch string }{
			{"/publish", "/signatures"},
			{"/sets/x/publish", "/sets/x/signatures"},
		} {
			h := New().HandlerWithPublish("")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route.publish, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK:
			case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
				continue
			default:
				t.Fatalf("POST %s answered %d: %s", route.publish, rec.Code, rec.Body)
			}
			sent, err := signature.ReadJSON(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s accepted a body that does not decode: %v", route.publish, err)
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, route.fetch, nil))
			got, err := signature.ReadJSON(rec.Body)
			if err != nil {
				t.Fatalf("GET %s after an accepted publish: %v", route.fetch, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("GET %s served a set that fails Validate: %v", route.fetch, err)
			}
			if !slices.Equal(keys(got), keys(sent)) {
				t.Fatalf("GET %s keys = %q, published %q", route.fetch, keys(got), keys(sent))
			}
		}
	})
}

func keys(set *signature.Set) []string {
	out := make([]string, len(set.Signatures))
	for i, sig := range set.Signatures {
		out[i] = sig.Key()
	}
	return out
}
