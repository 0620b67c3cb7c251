package fabric

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"gputlb/internal/jobs"
)

// FuzzJobSpec follows a submitted spec down the server's path: JSON
// decode (as POST /jobs decodes it) → Normalize → CellKey. A spec that
// normalizes must normalize again to the same spec, and each cell's key
// must not depend on the order its JSON fields arrive in.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec jobs.JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		// Grids expand to benchmarks × configs cells; keep them small.
		if len(spec.Benchmarks)*len(spec.Configs) > 256 || len(spec.Cells) > 256 {
			return
		}
		if spec.Normalize() != nil {
			return
		}
		once, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var again jobs.JobSpec
		if err := json.Unmarshal(once, &again); err != nil {
			t.Fatal(err)
		}
		if err := again.Normalize(); err != nil {
			t.Fatalf("normalized spec fails to normalize again: %v\n%s", err, once)
		}
		twice, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("Normalize is not idempotent:\nonce:  %s\ntwice: %s", once, twice)
		}
		for i, cell := range spec.Cells {
			doc, err := reversedJSON(cell)
			if err != nil {
				t.Fatal(err)
			}
			var back jobs.CellSpec
			if err := json.Unmarshal(doc, &back); err != nil {
				t.Fatalf("cell %d: reordered JSON does not decode: %v\n%s", i, err, doc)
			}
			if CellKey(back) != CellKey(cell) {
				t.Fatalf("cell %d: field order changed the key\n%s", i, doc)
			}
		}
	})
}

// reversedJSON encodes v as a JSON object whose top-level fields appear
// in reverse order of their names — an order neither the struct encoder
// nor a map encoder produces.
func reversedJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	var b bytes.Buffer
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		key, _ := json.Marshal(name)
		b.Write(key)
		b.WriteByte(':')
		b.Write(fields[name])
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}
