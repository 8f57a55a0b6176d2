package fabric

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geoblock/internal/worldgen"
)

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// sized is a request body of exactly n bytes: prefix padded with
// spaces. It is generated as it is read, so an oversized body costs the
// test nothing.
func sized(prefix string, n int64) io.Reader {
	return io.MultiReader(strings.NewReader(prefix), io.LimitReader(spaces{}, n-int64(len(prefix))))
}

// TestRequestBodyCaps drives every body-reading endpoint with bodies at
// and past its cap, announced by Content-Length and streamed without
// one: a body over the cap is answered 413 before it is decoded, and a
// body at the cap is decoded as usual.
func TestRequestBodyCaps(t *testing.T) {
	coord := New(Options{Study: StudySpec{World: worldgen.TestConfig()}})
	h := coord.Handler()
	completeURL := PathComplete + "?phase=0&seq=0&lease=1&fp=1&worker=w"
	cases := []struct {
		name     string
		url      string
		prefix   string
		size     int64
		announce bool
		want     int
	}{
		{"lease at cap", PathLease, `{"worker":"w","max":1}`, maxControlBody, true, http.StatusOK},
		{"lease over cap, announced", PathLease, `{"worker":"w"}`, maxControlBody + 1, true, http.StatusRequestEntityTooLarge},
		{"lease over cap, streamed", PathLease, `{"worker":"w"}`, maxControlBody + 1, false, http.StatusRequestEntityTooLarge},
		{"extend at cap", PathExtend, `{"worker":"w","phase":0,"seq":0,"lease":1}`, maxControlBody, false, http.StatusOK},
		{"extend over cap, announced", PathExtend, `{"worker":"w"}`, maxControlBody + 1, true, http.StatusRequestEntityTooLarge},
		{"extend over cap, streamed", PathExtend, `{"worker":"w"}`, maxControlBody + 1, false, http.StatusRequestEntityTooLarge},
		// Within the cap, a completion that is not framed records is a
		// decode error, not a size error.
		{"complete within cap", completeURL, "not frames", 1 << 10, true, http.StatusBadRequest},
		{"complete over cap, announced", completeURL, "", maxCompleteBody + 1, true, http.StatusRequestEntityTooLarge},
		{"complete over cap, streamed", completeURL, "", maxCompleteBody + 1, false, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, tc.url, sized(tc.prefix, tc.size))
			req.ContentLength = -1
			if tc.announce {
				req.ContentLength = tc.size
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("%s body of %d bytes answered %d (%s), want %d", tc.url, tc.size, rec.Code, strings.TrimSpace(rec.Body.String()), tc.want)
			}
		})
	}
}
