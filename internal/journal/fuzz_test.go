package journal

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzJournalRead feeds Read arbitrary bytes, as recovery does with
// whatever a crash left on disk. Read must not panic and must fail only
// with ErrCorrupt, and every entry it returns must survive a round trip:
// appended again through a Writer, the entries read back identical.
func FuzzJournalRead(f *testing.F) {
	var log strings.Builder
	jw := NewWriter(&log, 0)
	for _, e := range []struct{ user, mods string }{
		{"laporte", `<xupdate:modifications><xupdate:update select="/patients/franck/diagnosis">flu</xupdate:update></xupdate:modifications>`},
		{"beaufort", "<xupdate:modifications>\n  multi\n  line\n</xupdate:modifications>"},
	} {
		if _, err := jw.Append(e.user, e.mods); err != nil {
			f.Fatal(err)
		}
	}
	full := log.String()
	f.Add(full)
	// Torn tails: a crash cut the last append in its body, in its
	// terminator, in its header.
	f.Add(full[:len(full)-3])
	f.Add(full[:len(full)-1])
	f.Add(full[:strings.LastIndex(full, "entry ")+9])
	f.Add("")
	f.Add("\n")
	// A blank line ends the journal only when nothing but blank lines
	// follows it.
	f.Add(full + "\n \n")
	f.Add(strings.Replace(full, "\nentry 2", "\n\nentry 2", 1))
	f.Add("entry 1 u 4\nabcdX")
	f.Add("entry 1 u 9223372036854775807\nx\n")
	f.Add("entry 18446744073709551615 u 0\n\n")
	f.Fuzz(func(t *testing.T, src string) {
		entries, err := Read(strings.NewReader(src))
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Read error %v is not ErrCorrupt", err)
		}
		var again strings.Builder
		for _, e := range entries {
			// Writer numbers entries itself: continue from the one before.
			if _, err := NewWriter(&again, e.Seq-1).Append(e.User, e.Modifications); err != nil {
				t.Fatalf("entry %+v read but not appendable: %v", e, err)
			}
		}
		back, err := Read(strings.NewReader(again.String()))
		if err != nil {
			t.Fatalf("re-appended entries do not read back: %v", err)
		}
		if len(entries) > 0 && !reflect.DeepEqual(back, entries) {
			t.Fatalf("round trip changed the entries:\nread  %+v\nagain %+v", entries, back)
		}
	})
}
