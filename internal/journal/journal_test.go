package journal

import (
	"errors"
	"strings"
	"testing"
)

func TestAppendReadRoundTrip(t *testing.T) {
	var log strings.Builder
	jw := NewWriter(&log, 0)
	docs := []struct{ user, mods string }{
		{"alice", "<xupdate:modifications><xupdate:remove select=\"/a\"/></xupdate:modifications>"},
		{"bob", "<xupdate:modifications>\n  multi\n  line\n</xupdate:modifications>"},
		{"alice", "<xupdate:modifications/>"},
	}
	for i, d := range docs {
		seq, err := jw.Append(d.user, d.mods)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Errorf("seq = %d, want %d", seq, i+1)
		}
	}
	if jw.Seq() != 3 {
		t.Errorf("Seq = %d", jw.Seq())
	}
	entries, err := Read(strings.NewReader(log.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(docs) {
		t.Fatalf("%d entries, want %d", len(entries), len(docs))
	}
	for i, e := range entries {
		if e.User != docs[i].user || e.Modifications != docs[i].mods || e.Seq != uint64(i+1) {
			t.Errorf("entry %d = %+v", i, e)
		}
	}
}

func TestSeqContinuation(t *testing.T) {
	var log strings.Builder
	jw := NewWriter(&log, 41)
	seq, err := jw.Append("u", "<xupdate:modifications/>")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Errorf("seq = %d, want 42", seq)
	}
}

func TestAppendRejectsFramingBytes(t *testing.T) {
	jw := NewWriter(&strings.Builder{}, 0)
	if _, err := jw.Append("user with space", "<x/>"); err == nil {
		t.Error("user with space accepted")
	}
	if _, err := jw.Append("user\nnewline", "<x/>"); err == nil {
		t.Error("user with newline accepted")
	}
}

func TestReadTornTailKeepsPrefix(t *testing.T) {
	var log strings.Builder
	jw := NewWriter(&log, 0)
	if _, err := jw.Append("u", "<a/>"); err != nil {
		t.Fatal(err)
	}
	if _, err := jw.Append("u", "<b/>"); err != nil {
		t.Fatal(err)
	}
	full := log.String()
	torn := full[:len(full)-3] // crash mid-entry
	entries, err := Read(strings.NewReader(torn))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if len(entries) != 1 || entries[0].Modifications != "<a/>" {
		t.Errorf("prefix = %+v", entries)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"garbage header\nbody\n",
		"entry x u 4\nabcd\n",
		"entry 1 u notanumber\nabcd\n",
		"entry 1 u 4\nabcdX",                       // missing terminator
		"entry 1 u 4\nabcd\n\nentry 2 u 4\nefgh\n", // an entry after a blank line
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Read(%q) err = %v, want ErrCorrupt", src, err)
		}
	}
	// Empty journals and trailing blank lines are fine.
	if es, err := Read(strings.NewReader("")); err != nil || len(es) != 0 {
		t.Errorf("empty journal: %v %v", es, err)
	}
	if es, err := Read(strings.NewReader("entry 1 u 4\nabcd\n\n \n")); err != nil || len(es) != 1 {
		t.Errorf("trailing blank lines: %v %v", es, err)
	}
}
