package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"
)

// recorder is a reusable http.ResponseWriter: the closed-loop client
// resets it between requests, so steady-state requests allocate nothing on
// the client side and the body buffer stays at its high-water mark.
type recorder struct {
	hdr  http.Header
	code int
	body []byte
	// firstWrite is when the handler first wrote body bytes; the traced
	// phase anchors the server's echoed spans to it.
	firstWrite time.Time
	stampWrite bool
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	if r.stampWrite && r.firstWrite.IsZero() {
		r.firstWrite = time.Now()
	}
	r.body = append(r.body, p...)
	return len(p), nil
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.body = r.body[:0]
	r.firstWrite = time.Time{}
}

// client drives one server handler in process through ServeHTTP.
type client struct {
	h   http.Handler
	rec *recorder
	// requests and failed count every operation this client sent.
	requests, failed int
}

func newClient(h http.Handler) *client { return &client{h: h, rec: newRecorder()} }

// do sends one request and returns the status and a body that stays valid
// until the next call.
func (c *client) do(method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	c.rec.reset()
	c.h.ServeHTTP(c.rec, req)
	c.requests++
	return c.rec.code, c.rec.body
}

// call sends a JSON request, requires want as the status and decodes the
// reply into out (when non-nil). A mismatch counts as a failed operation.
func (c *client) call(method, path string, in, out any, want int) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	code, resp := c.do(method, path, body)
	if code != want {
		c.failed++
		return fmt.Errorf("%s %s: status %d, want %d: %.300s", method, path, code, want, resp)
	}
	if out != nil {
		if err := json.Unmarshal(resp, out); err != nil {
			c.failed++
			return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return nil
}

// hotRequest is one pre-built POST /release the closed loop re-sends: the
// request object and its body reader are reused, so the client allocates
// nothing per request.
type hotRequest struct {
	req     *http.Request
	payload []byte
	rd      *bytes.Reader
	body    io.ReadCloser
}

func newHotRequest(payload []byte) *hotRequest {
	rd := bytes.NewReader(payload)
	req := httptest.NewRequest(http.MethodPost, "/release", rd)
	return &hotRequest{req: req, payload: payload, rd: rd, body: io.NopCloser(rd)}
}

// send runs the request once and returns when it started and its
// client-side latency.
func (c *client) send(hr *hotRequest) (time.Time, time.Duration) {
	hr.rd.Reset(hr.payload)
	hr.req.Body = hr.body
	c.rec.reset()
	t0 := time.Now()
	c.h.ServeHTTP(c.rec, hr.req)
	d := time.Since(t0)
	c.requests++
	return t0, d
}

// batchItem and batchBody mirror the POST /release wire format.
type batchItem struct {
	Strategy string  `json:"strategy"`
	Dataset  string  `json:"dataset"`
	Epsilon  float64 `json:"epsilon"`
	Delta    float64 `json:"delta"`
	Mode     string  `json:"mode"`
	Trace    bool    `json:"trace,omitempty"`
}

type batchBody struct {
	Releases    []batchItem `json:"releases"`
	Parallelism int         `json:"parallelism"`
}

// releaseBody builds a batch of n estimate-mode releases.
func releaseBody(strategy, ds string, eps float64, n int, trace bool) []byte {
	b := batchBody{Parallelism: batchParallelism}
	for range n {
		b.Releases = append(b.Releases, batchItem{
			Strategy: strategy, Dataset: ds, Epsilon: eps, Delta: releaseDelta, Mode: "estimate", Trace: trace,
		})
	}
	out, err := json.Marshal(b)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return out
}

// batchReply is the decoded POST /release reply.
type batchReply struct {
	Results []struct {
		Status  int       `json:"status"`
		Answers []float64 `json:"answers"`
		Error   string    `json:"error"`
	} `json:"results"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// replyShape verifies batch replies without decoding them: the success
// trailer, no non-finite value (the server writes those as null), and the
// exact comma count of batch results of cells values each. It is the
// per-reply check of the timed phase. Traced replies carry span objects,
// so their comma count is not fixed and only the rest is checked.
type replyShape struct {
	batch, cells int
	trailer      []byte
}

func newReplyShape(batch, cells int) replyShape {
	return replyShape{batch: batch, cells: cells,
		trailer: fmt.Appendf(nil, `],"succeeded":%d,"failed":0}`+"\n", batch)}
}

func (s replyShape) check(body []byte, traced bool) error {
	if !bytes.HasSuffix(body, s.trailer) {
		return fmt.Errorf("reply does not end in %q: %q", s.trailer, tail(body))
	}
	if bytes.Contains(body, []byte("null")) {
		return fmt.Errorf("reply holds a non-finite value")
	}
	if traced {
		return nil
	}
	// Per result: cells−1 commas between values, 3 between its four
	// fields and 1 inside the ledger; batch−1 between results; 2 in the
	// trailer.
	if got, want := bytes.Count(body, []byte{','}), s.batch*(s.cells+4)+1; got != want {
		return fmt.Errorf("reply has %d commas, want %d for %d releases of %d values", got, want, s.batch, s.cells)
	}
	return nil
}

func tail(b []byte) []byte {
	if len(b) > 80 {
		return b[len(b)-80:]
	}
	return b
}
