package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDecodeJSONMatchesUnmarshal pins decodeJSON's pooled decoder to
// json.Unmarshal's contract: exactly one JSON value, optionally padded
// with whitespace, decodes; anything after the value, an empty or
// truncated body and a type mismatch get 400 with Unmarshal's own error
// after "bad JSON: " (TestBatchReleaseBodyCap pins the 413 for an
// oversized body). The bodies run twice in a row through one pool, so
// every decoder is reused after successes, trailing whitespace and
// refusals alike.
func TestDecodeJSONMatchesUnmarshal(t *testing.T) {
	type target struct {
		A int    `json:"a"`
		B string `json:"b,omitempty"`
	}
	bodies := []string{
		`{"a":1}`,
		"  {\"a\":2, \"b\":\"x\"}\n\t ",
		`{"a":3} x`,
		`{"a":4}{"a":5}`,
		`{"a":6}}`,
		`{"a":7}]`,
		``,
		`   `,
		`{"a":"eight"}`,
		`[1, 2`,
		`9`,
		`{"a":10} `,
		`{"a":11}`,
	}
	for round := 0; round < 2; round++ {
		for _, body := range bodies {
			var want target
			wantErr := json.Unmarshal([]byte(body), &want)
			var got target
			rec := httptest.NewRecorder()
			ok := decodeJSON(rec, httptest.NewRequest(http.MethodPost, "/design", strings.NewReader(body)), &got)
			if ok != (wantErr == nil) {
				t.Fatalf("round %d, body %q: decoded %v, json.Unmarshal error %v", round, body, ok, wantErr)
			}
			if ok {
				if got != want {
					t.Fatalf("round %d, body %q: decoded %+v, json.Unmarshal %+v", round, body, got, want)
				}
				continue
			}
			var resp struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if msg := fmt.Sprintf("bad JSON: %v", wantErr); rec.Code != http.StatusBadRequest || resp.Error != msg {
				t.Fatalf("round %d, body %q: %d %q, want 400 %q", round, body, rec.Code, resp.Error, msg)
			}
		}
	}
}
