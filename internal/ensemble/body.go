package ensemble

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
)

// Request bodies are read whole and parsed as exactly one JSON value.
//
// A create or resume body is almost all checkpoint: at r5 a 717 kB body
// carries a 538 kB container as one base64 string, and encoding/json would
// run its byte-at-a-time scanner over all of it before decoding the base64.
// decodeCreate finds that string with a walk over the top-level object
// alone, base64-decodes it straight from the body, and leaves only the rest
// (config, ocean_lag, flat, a snapshot's info) to encoding/json. Its result
// is defined as json.Unmarshal's: every body the walk cannot settle goes to
// json.Unmarshal whole, and FuzzCreateRequestBody holds the two to it.

// bodyPresize bounds the buffer a declared Content-Length buys before any
// byte has arrived; past it the buffer grows only as bytes arrive.
const bodyPresize = 1 << 20

// readBody reads a request body once, into a buffer presized from the
// declared Content-Length (at most bodyPresize) that at most doubles, and
// never past the declared length, each time the bytes read fill it.
func readBody(r *http.Request) ([]byte, error) {
	want := min(max(r.ContentLength, 0), bodyPresize)
	buf := make([]byte, 0, want+1) // +1: reading io.EOF does not grow a full buffer
	for {
		if len(buf) == cap(buf) {
			more := len(buf)
			if rest := r.ContentLength - int64(len(buf)); rest >= 0 && rest < int64(more) {
				more = int(rest) + 1
			}
			buf = slices.Grow(buf, more)
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: reading body: %v", ErrInvalid, err)
		}
	}
}

// decodeBody parses a request body that must be exactly one JSON value
// into v. Unknown fields are tolerated.
func decodeBody(r *http.Request, v any) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	return unmarshal(body, v)
}

func unmarshal(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return nil
}

// decodeCreate parses a create or resume body into req with the result of
// json.Unmarshal(body, req). It reuses body's storage: the bytes are
// overwritten.
func decodeCreate(body []byte, req *CreateRequest) error {
	start, end, ok := checkpointSpan(body)
	if !ok {
		return unmarshal(body, req)
	}
	// The span holds no quote or backslash. Any byte of it that JSON does not
	// read as itself (a control byte, invalid UTF-8) is outside the base64
	// alphabet, and base64.StdEncoding rejects it too, except CR and LF,
	// which it skips while JSON rejects them: leave those to json.Unmarshal.
	if bytes.IndexByte(body[start:end], '\r') >= 0 || bytes.IndexByte(body[start:end], '\n') >= 0 {
		return unmarshal(body, req)
	}
	chk := make([]byte, base64.StdEncoding.DecodedLen(end-start))
	n, err := base64.StdEncoding.Decode(chk, body[start:end])
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	// What is left holds "checkpoint":"" where the string was: the same
	// JSON structure, so the same verdict on syntax and on every other field.
	if err := unmarshal(append(body[:start], body[end:]...), req); err != nil {
		return err
	}
	req.Checkpoint = chk[:n]
	return nil
}

// checkpointSpan walks the top-level object of body and returns the
// content of its "checkpoint" member's string, body[start:end]. ok is
// false whenever the walk cannot settle what json.Unmarshal would store in
// CreateRequest.Checkpoint: body is not an object, the member is missing,
// repeated or not a string, its value holds an escape, or some key holds
// an escape or is "checkpoint" only under case folding (bytes.EqualFold
// folds as encoding/json matches field names). The walk does not
// validate: the caller unmarshals everything outside the span.
func checkpointSpan(body []byte) (start, end int, ok bool) {
	p := skipSpace(body, 0)
	if p == len(body) || body[p] != '{' {
		return 0, 0, false
	}
	found := false
	for p = skipSpace(body, p+1); p < len(body) && body[p] == '"'; {
		k := bytes.IndexByte(body[p+1:], '"')
		if k < 0 {
			return 0, 0, false
		}
		key := body[p+1 : p+1+k]
		if bytes.IndexByte(key, '\\') >= 0 {
			return 0, 0, false
		}
		p = skipSpace(body, p+k+2)
		if p == len(body) || body[p] != ':' {
			return 0, 0, false
		}
		p = skipSpace(body, p+1)
		switch {
		case string(key) == "checkpoint":
			if found || p == len(body) || body[p] != '"' {
				return 0, 0, false
			}
			k := bytes.IndexByte(body[p+1:], '"')
			if k < 0 || bytes.IndexByte(body[p+1:p+1+k], '\\') >= 0 {
				return 0, 0, false
			}
			found, start, end = true, p+1, p+1+k
			p = end + 1
		case bytes.EqualFold(key, []byte("checkpoint")):
			return 0, 0, false
		default:
			if p = skipValue(body, p); p < 0 {
				return 0, 0, false
			}
		}
		if p = skipSpace(body, p); p < len(body) && body[p] == ',' {
			p = skipSpace(body, p+1)
		}
	}
	return start, end, found
}

func skipSpace(b []byte, p int) int {
	for p < len(b) && (b[p] == ' ' || b[p] == '\t' || b[p] == '\n' || b[p] == '\r') {
		p++
	}
	return p
}

// skipValue returns the offset just past the JSON value at b[p:], or -1
// when b ends first. It tracks only strings and nesting depth.
func skipValue(b []byte, p int) int {
	depth := 0
	for p < len(b) {
		switch c := b[p]; {
		case c == '"':
			if p = skipString(b, p); p < 0 || depth == 0 {
				return p
			}
			continue
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth == 0 {
				return p
			}
			if depth--; depth == 0 {
				return p + 1
			}
		case depth == 0 && (c == ',' || c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			return p
		}
		p++
	}
	return -1
}

// skipString returns the offset just past the string whose opening quote
// is b[p], or -1 when b ends first.
func skipString(b []byte, p int) int {
	for p++; ; {
		k := bytes.IndexByte(b[p:], '"')
		if k < 0 {
			return -1
		}
		if e := bytes.IndexByte(b[p:p+k], '\\'); e >= 0 {
			p += e + 2 // the escaped byte may be the quote
			if p > len(b) {
				return -1
			}
			continue
		}
		return p + k + 1
	}
}
