package bib

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzTitleTokens pins the tokenizer invariants under arbitrary input:
// every token is non-empty lowercased ASCII alphanumeric, tokenization
// is deterministic, re-tokenizing the joined tokens is idempotent, and
// Keywords is always the stop-word/length filter of TitleTokens.
func FuzzTitleTokens(f *testing.F) {
	f.Add("Mining Frequent Patterns Without Candidate Generation")
	f.Add("Théorie des Graphes.")        // latin1 accents
	f.Add("a&amp;b &lt;tags&gt; &#233;") // entity-looking text
	f.Add("ALL CAPS 123 mixed09CASE")
	f.Add("")
	f.Add("!!!")
	f.Add("word\x00null\xffbyte")
	f.Add("日本語のタイトル with ascii")
	f.Fuzz(func(t *testing.T, title string) {
		toks := TitleTokens(title)
		for i, tok := range toks {
			if tok == "" {
				t.Fatalf("empty token at %d for %q", i, title)
			}
			for _, r := range tok {
				if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9') {
					t.Fatalf("token %q of %q has non-lowercase-alnum rune %q", tok, title, r)
				}
			}
		}
		// Determinism.
		again := TitleTokens(title)
		if len(again) != len(toks) {
			t.Fatalf("nondeterministic tokenization of %q", title)
		}
		for i := range toks {
			if toks[i] != again[i] {
				t.Fatalf("nondeterministic token %d of %q", i, title)
			}
		}
		// Idempotence: tokens of the joined tokens are the tokens.
		joined := strings.Join(toks, " ")
		re := TitleTokens(joined)
		if len(re) != len(toks) {
			t.Fatalf("re-tokenizing %q changed count %d→%d", joined, len(toks), len(re))
		}
		for i := range toks {
			if re[i] != toks[i] {
				t.Fatalf("re-tokenizing changed token %d: %q→%q", i, toks[i], re[i])
			}
		}
		// Keywords ⊆ TitleTokens with the documented filter.
		kws := Keywords(title)
		want := 0
		for _, tok := range again {
			if len(tok) > 1 && !IsStopWord(tok) {
				want++
			}
		}
		if len(kws) != want {
			t.Fatalf("Keywords(%q) kept %d tokens, filter says %d", title, len(kws), want)
		}
		for _, k := range kws {
			if len(k) <= 1 || IsStopWord(k) {
				t.Fatalf("Keywords(%q) kept filtered token %q", title, k)
			}
		}
		// Uppercase ASCII must not survive (cheap sanity via unicode).
		for _, tok := range toks {
			for _, r := range tok {
				if unicode.IsUpper(r) {
					t.Fatalf("uppercase rune in token %q", tok)
				}
			}
		}
	})
}

// FuzzParseDBLP feeds arbitrary bytes through the streaming DBLP parser:
// it must never panic, and every corpus it does produce must be frozen,
// structurally valid, and in agreement with its own stats.
func FuzzParseDBLP(f *testing.F) {
	// Seeds: the latin1/entity edge cases of latin1_test.go plus
	// structural oddities of the real dump.
	f.Add([]byte(`<?xml version="1.0" encoding="ISO-8859-1"?>` +
		"<dblp><article key=\"k\"><author>Ren\xe9 Dupont</author>" +
		"<title>Th\xe9orie des Graphes.</title><journal>J</journal>" +
		"<year>1999</year></article></dblp>"))
	f.Add([]byte(`<dblp><article><author>A &amp; B</author><title>T&#233;st</title>` +
		`<year>2000</year></article></dblp>`))
	f.Add([]byte(`<dblp><inproceedings><author>Wei Wang 0001</author>` +
		`<booktitle>KDD</booktitle><year>bad</year></inproceedings></dblp>`))
	f.Add([]byte(`<dblp><article><title>no authors</title></article></dblp>`))
	f.Add([]byte(`<dblp><article><author>Dup</author><author>Dup</author>` +
		`<title>dup authors</title></article></dblp>`))
	f.Add([]byte(`<dblp><article><author>Truncated`))
	f.Add([]byte(`<?xml version="1.0" encoding="shift-jis"?><dblp/>`))
	f.Add([]byte(""))
	f.Add([]byte("<dblp><www><author>Deep<nest><deeper>x</deeper></nest></author></www></dblp>"))
	f.Fuzz(func(t *testing.T, doc []byte) {
		c, stats, err := ParseDBLP(strings.NewReader(string(doc)), 50)
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		if c == nil {
			t.Fatal("nil corpus without error")
		}
		if !c.Frozen() {
			t.Fatal("parser returned unfrozen corpus")
		}
		if c.Len() != stats.Kept {
			t.Fatalf("corpus has %d papers, stats.Kept=%d", c.Len(), stats.Kept)
		}
		if stats.Kept > stats.Records {
			t.Fatalf("kept %d > records %d", stats.Kept, stats.Records)
		}
		for i := 0; i < c.Len(); i++ {
			p := c.Paper(PaperID(i))
			if err := p.Validate(); err != nil {
				t.Fatalf("paper %d invalid after parse: %v", i, err)
			}
			// The columnar view must resolve every slot.
			ids := c.AuthorIDs(p.ID)
			if len(ids) != len(p.Authors) {
				t.Fatalf("paper %d: %d author IDs for %d authors", i, len(ids), len(p.Authors))
			}
			for k, id := range ids {
				if got := c.NameTable().String(id); got != p.Authors[k] {
					t.Fatalf("paper %d slot %d: %q vs %q", i, k, got, p.Authors[k])
				}
			}
		}
	})
}
