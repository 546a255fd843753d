package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// decodeSpec decodes body through the submit path's decode helper and
// returns the spec and the status the helper answered (200 when it
// accepted the body).
func decodeSpec(body []byte) (Spec, int) {
	var spec Spec
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if !decodeBody(rec, req, maxSpecBytes, "spec", &spec) {
		return spec, rec.Code
	}
	return spec, http.StatusOK
}

// FuzzSpec feeds arbitrary bytes to the submit path's decode, then to
// Spec.Normalized and Spec.Build. A body the decoder accepts holds exactly
// one JSON value. Normalized refuses a spec or returns a fixed point that
// round-trips through JSON, and Build refuses every spec Normalized
// refuses. A built campaign carries the normalized spec and a non-empty
// universe that its header counts, and building the raw spec gives the
// same header. The seeds are the service leg's spec, the tests' quick
// spec, an ICU single-core spec, the spec with every default omitted, and
// bodies and specs the server refuses; they run under plain `go test`.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{"routine":"forwarding","core":0,"strategy":"cache","faults":"transition","bitstep":1}`,
		`{"routine":"forwarding","bitstep":8}`,
		`{"routine":"icu","strategy":"plain","bitstep":1}`,
		`{}`,
		`{"routine":"icu","bitstep":8} {"routine":"hdcu"}`,
		`{"routine":"forwarding","bitstep":8} garbage`,
		`{"worker":"w"} trailing`,
		`{"worker":"w","bogus":1}`,
		`{"strategy":"dram"}`,
		`{"routine":"hdcu","faults":"transition"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, code := decodeSpec(body)
		if code != http.StatusOK {
			if code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
				t.Fatalf("refused %q with status %d, want 400 or 413", body, code)
			}
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted %q, which is not exactly one JSON value", body)
		}
		norm, err := spec.Normalized()
		if err != nil {
			if _, err := spec.Build(); err == nil {
				t.Fatalf("%+v: Build accepts a spec Normalized refuses", spec)
			}
			return
		}
		if again, err := norm.Normalized(); err != nil || again != norm {
			t.Fatalf("%+v normalizes to %+v, and that to %+v (%v)", spec, norm, again, err)
		}
		blob, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		if back, code := decodeSpec(blob); code != http.StatusOK || back != norm {
			t.Fatalf("%+v round-trips through %s to %+v (status %d)", norm, blob, back, code)
		}
		c, err := norm.Build()
		if err != nil {
			if _, rawErr := spec.Build(); rawErr == nil {
				t.Fatalf("%+v builds, its normalized form fails: %v", spec, err)
			}
			return
		}
		if c.Spec != norm || len(c.Sites) == 0 || c.Header.Sites != len(c.Sites) {
			t.Fatalf("%+v builds spec %+v with %d sites, header counting %d", norm, c.Spec, len(c.Sites), c.Header.Sites)
		}
		raw, err := spec.Build()
		if err != nil || raw.Header != c.Header {
			t.Fatalf("%+v builds header %+v (%v), its normalized form %+v", spec, raw.Header, err, c.Header)
		}
	})
}
