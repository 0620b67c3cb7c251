package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadJournal feeds the journal loader arbitrary bytes: it must never
// panic, every state it accepts must name only cells of its spec, and a
// torn record appended to an accepted journal of whole records must be
// dropped without changing the state.
func FuzzLoadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "job-0001"+journalSuffix)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := LoadJournal(path)
		if err != nil {
			return
		}
		for idx := range st.Completed {
			if idx < 0 || idx >= len(st.Spec.Cells) {
				t.Fatalf("accepted a result for cell %d of a %d-cell spec", idx, len(st.Spec.Cells))
			}
		}
		for idx := range st.Failed {
			if idx < 0 || idx >= len(st.Spec.Cells) {
				t.Fatalf("accepted a failure for cell %d of a %d-cell spec", idx, len(st.Spec.Cells))
			}
		}

		// The torn-line property needs every line to be a whole record:
		// an unparseable last line was itself dropped as torn, and would
		// be mid-file once another line follows it.
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 && json.Unmarshal(line, new(journalRecord)) != nil {
				return
			}
		}
		if len(data) > 0 && data[len(data)-1] != '\n' {
			data = append(data, '\n')
		}
		data = append(data, `{"type":"cell","index":0,"resu`...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		torn, err := LoadJournal(path)
		if err != nil {
			t.Fatalf("torn final line not dropped: %v", err)
		}
		if !reflect.DeepEqual(torn, st) {
			t.Fatalf("torn final line changed the state:\n got %+v\nwant %+v", torn, st)
		}
	})
}
