package lang

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse checks that Parse never panics on any input, and that for
// input it accepts Format's output parses again and is a fixed point of
// Format∘Parse. Seeds are the repository's litmus files and the shrunk
// reproducers of the campaign corpus.
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 20s ./internal/lang
func FuzzParse(f *testing.F) {
	for _, glob := range []string{"../../testdata/*.litmus", "../check/testdata/corpus/*.litmus"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			f.Fatalf("no seed files match %s (err %v)", glob, err)
		}
		for _, name := range files {
			src, err := os.ReadFile(name)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(p)
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("Format output does not parse: %v\n%s", err, text)
		}
		if again := Format(q); again != text {
			t.Fatalf("Format∘Parse is not a fixed point:\n%s\n--- reformatted:\n%s", text, again)
		}
	})
}
