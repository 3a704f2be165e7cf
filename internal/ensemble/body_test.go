package ensemble

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// r5Bodies returns a real r5 resume body and the snapshot reply it came
// from (info first), one coupling interval into an r5-quick member.
func r5Bodies(tb testing.TB) (resume, snapshot []byte) {
	tb.Helper()
	s := New(Config{Workers: 1})
	defer s.Close()
	m, err := s.CreateScenario("r5-quick", nil)
	if err != nil {
		tb.Fatal(err)
	}
	if m, err = s.AdvanceIntervals(m.ID, 1); err != nil {
		tb.Fatal(err)
	}
	chk, cfg, err := s.Snapshot(m.ID)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := chk.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	if resume, err = json.Marshal(CreateRequest{Config: &cfg, Checkpoint: buf.Bytes()}); err != nil {
		tb.Fatal(err)
	}
	if snapshot, err = json.Marshal(SnapshotResponse{Info: m, Config: cfg, Checkpoint: buf.Bytes()}); err != nil {
		tb.Fatal(err)
	}
	return resume, snapshot
}

// FuzzCreateRequestBody holds decodeCreate to its definition: for every
// input, the value json.Unmarshal stores in a CreateRequest (nil and empty
// Checkpoint told apart), or an error where json.Unmarshal errs.
func FuzzCreateRequestBody(f *testing.F) {
	resume, snapshot := r5Bodies(f)
	f.Add(resume)
	f.Add(snapshot)
	for _, body := range []string{
		`{"config":{"OceanEvery":4},"ocean_lag":1,"flat":true,"checkpoint":"AAAA"}`,
		`{"config":{},"Checkpoint":"AAAA"}`,
		`{"checkpoint":"AAAA","checkpoint":"BBBB"}`,
		`{"checkpoint":"AAAA","CHECKPOINT":null}`,
		`{"checkpoint":"AAAA"}`,
		"{\"chec\u212apoint\":\"AAAA\"}", // KELVIN SIGN folds to k
		`{"\u0063heckpoint":"AAAA"}`,
		`{"checkpoint":"AA\/A"}`,
		"{\"checkpoint\":\"AAAA\nAAAA\"}",
		"{\"checkpoint\":\"AAAA\r\nAAAA\"}",
		"{\"checkpoint\":\"AA\x01A\"}",
		`{"checkpoint":"AA A"}`,
		`{"checkpoint":"AAA="}`,
		`{"checkpoint":null}`,
		`{"checkpoint":""}`,
		`{"checkpoint":7}`,
		`{"checkpoint":["AAAA"]}`,
		`{"config":{"checkpoint":"AAAA"},"info":{"id":"m1","checkpoint":"}"}}`,
		`{"info":["{",{"a":"\"]"}],"checkpoint":"AAAA"}`,
		`{"checkpoint":"AAAA"}garbage`,
		`{"checkpoint":"AAAA"}{"checkpoint":"BBBB"}`,
		`{"checkpoint":"AAAA"}]`,
		`{"checkpoint":"AAAA"`,
		` { "checkpoint" : "AAAA" } `,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got CreateRequest
		wantErr := json.Unmarshal(body, &want)
		gotErr := decodeCreate(bytes.Clone(body), &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeCreate(%q): error %v, json.Unmarshal: %v", body, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeCreate(%q) = %+v, json.Unmarshal gives %+v", body, got, want)
		}
	})
}

// BenchmarkCreateRequestBody parses an r5 resume body with encoding/json
// and with decodeCreate.
func BenchmarkCreateRequestBody(b *testing.B) {
	resume, _ := r5Bodies(b)
	scratch := make([]byte, len(resume))
	for _, bc := range []struct {
		name   string
		decode func(body []byte, req *CreateRequest) error
	}{
		{"json.Unmarshal", func(body []byte, req *CreateRequest) error { return json.Unmarshal(body, req) }},
		{"decodeCreate", decodeCreate},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(resume)))
			for i := 0; i < b.N; i++ {
				copy(scratch, resume)
				var req CreateRequest
				if err := bc.decode(scratch, &req); err != nil || len(req.Checkpoint) == 0 {
					b.Fatalf("%v, %d checkpoint bytes", err, len(req.Checkpoint))
				}
			}
		})
	}
}
