package codec

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// testInputs covers the data shapes spilled pages exhibit: runs, repeated
// structure (row-wise tuples), text, and incompressible noise.
func testInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(42))
	random := make([]byte, 64<<10)
	rng.Read(random)

	tuples := make([]byte, 0, 64<<10)
	for i := 0; len(tuples) < 60<<10; i++ {
		row := make([]byte, 88)
		for j := 0; j < 8; j++ {
			row[j] = byte(i >> (8 * j))
		}
		copy(row[8:], "DELIVER IN PERSON")
		copy(row[32:], "ironic deposits sleep furiously around the ")
		row[80] = byte(i % 7)
		tuples = append(tuples, row...)
	}

	return map[string][]byte{
		"empty":     {},
		"one":       {0x42},
		"tiny":      []byte("abc"),
		"zeros":     make([]byte, 32<<10),
		"runs":      bytes.Repeat([]byte{1, 1, 1, 1, 2, 2, 2, 2, 3}, 4000),
		"text":      []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 1200)),
		"tuples":    tuples,
		"random":    random,
		"aaaa":      bytes.Repeat([]byte{'a'}, 70000),
		"alternate": bytes.Repeat([]byte{0, 255}, 10000),
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	inputs := testInputs()
	for _, c := range All() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			for name, in := range inputs {
				comp := c.Compress(nil, in)
				got, err := c.Decompress(nil, comp)
				if err != nil {
					t.Fatalf("%s: decompress: %v", name, err)
				}
				if !bytes.Equal(got, in) {
					t.Fatalf("%s: round trip mismatch (in %d bytes, out %d bytes)", name, len(in), len(got))
				}
			}
		})
	}
}

func TestDecompressAppends(t *testing.T) {
	c := ByID(LZ4Default)
	comp := c.Compress(nil, []byte("world"))
	out, err := c.Decompress([]byte("hello "), comp)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hello world" {
		t.Fatalf("append semantics broken: %q", out)
	}
}

func TestCompressAppends(t *testing.T) {
	for _, c := range All() {
		prefix := []byte{9, 9, 9}
		comp := c.Compress(append([]byte(nil), prefix...), []byte("payload data payload data"))
		if !bytes.Equal(comp[:3], prefix) {
			t.Fatalf("%s: Compress overwrote dst prefix", c.Name())
		}
		got, err := c.Decompress(nil, comp[3:])
		if err != nil || string(got) != "payload data payload data" {
			t.Fatalf("%s: round trip with prefix failed: %v %q", c.Name(), err, got)
		}
	}
}

func TestCompressionRatioOnStructuredData(t *testing.T) {
	in := testInputs()["tuples"]
	for _, c := range All() {
		comp := c.Compress(nil, in)
		ratio := float64(len(in)) / float64(len(comp))
		if ratio < 1.5 {
			t.Errorf("%s: ratio %.2f on structured tuple data, want >= 1.5", c.Name(), ratio)
		}
	}
}

func TestHCNotWorseThanFast(t *testing.T) {
	// Deeper LZ4 search must not compress structured data worse.
	in := testInputs()["text"]
	fast := len(ByID(LZ4Fastest).Compress(nil, in))
	hc := len(ByID(LZ4HC16).Compress(nil, in))
	if hc > fast {
		t.Fatalf("lz4-hc16 output (%d) larger than lz4-a8 (%d)", hc, fast)
	}
}

func TestDeflateLevelsOrdered(t *testing.T) {
	in := testInputs()["tuples"]
	l1 := len(ByID(Deflate1).Compress(nil, in))
	l9 := len(ByID(Deflate9).Compress(nil, in))
	if l9 > l1 {
		t.Fatalf("deflate-9 output (%d) larger than deflate-1 (%d)", l9, l1)
	}
}

func TestCorruptInputRejected(t *testing.T) {
	for _, c := range All() {
		if _, err := c.Decompress(nil, nil); err == nil {
			t.Errorf("%s: accepted empty input", c.Name())
		}
		comp := c.Compress(nil, []byte(strings.Repeat("abcdefgh", 100)))
		// Truncations must error, never panic or return wrong-length data.
		for _, cut := range []int{1, len(comp) / 2, len(comp) - 1} {
			if cut >= len(comp) {
				continue
			}
			got, err := c.Decompress(nil, comp[:cut])
			if err == nil && len(got) == 800 {
				// Extremely unlikely a truncation still yields full output.
				t.Errorf("%s: truncation to %d bytes decoded fully", c.Name(), cut)
			}
		}
	}
}

func TestCorruptBitFlips(t *testing.T) {
	// Flipping bytes must never panic; errors or detectable garbage are fine.
	in := []byte(strings.Repeat("spilly spills pages to nvme ", 50))
	for _, c := range All() {
		comp := c.Compress(nil, in)
		for i := 0; i < len(comp); i += 3 {
			mut := append([]byte(nil), comp...)
			mut[i] ^= 0x55
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic on corrupt input (byte %d): %v", c.Name(), i, r)
					}
				}()
				c.Decompress(nil, mut)
			}()
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	for _, c := range All() {
		c := c
		f := func(data []byte) bool {
			comp := c.Compress(nil, data)
			got, err := c.Decompress(nil, comp)
			return err == nil && bytes.Equal(got, data)
		}
		n := 300
		if c.ID() == BWT {
			n = 60 // BWT is deliberately slow
		}
		if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestRegistry(t *testing.T) {
	if ByID(None) != nil {
		t.Fatal("None must have no codec (raw storage)")
	}
	if ByID(numIDs) != nil || ByID(numIDs+100) != nil {
		t.Fatal("out-of-range ID returned a codec")
	}
	if c := ByName("lz4"); c == nil || c.ID() != LZ4Default {
		t.Fatal("ByName(lz4) broken")
	}
	if ByName("nope") != nil {
		t.Fatal("ByName accepted unknown name")
	}
	ids := map[ID]bool{}
	for _, c := range All() {
		if ids[c.ID()] {
			t.Fatalf("duplicate codec id %d", c.ID())
		}
		ids[c.ID()] = true
	}
	if len(ids) != int(numIDs)-1 {
		t.Fatalf("registered %d codecs, want %d", len(ids), numIDs-1)
	}
}

func TestBWTKnownVector(t *testing.T) {
	// "banana" with sentinel sorts to the classic annb$aa / primary form;
	// verify via explicit inverse rather than hardcoding.
	l, p := bwtForward([]byte("banana"))
	got, err := bwtInverse(l, p)
	if err != nil || string(got) != "banana" {
		t.Fatalf("bwt(banana) inverse = %q, %v", got, err)
	}
	if string(l) == "banana" {
		t.Fatal("bwt output equals input; transform did nothing")
	}
}

func TestMTFRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		orig := append([]byte(nil), data...)
		mtfEncode(data)
		mtfDecode(data)
		return bytes.Equal(data, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSuffixArraySorted(t *testing.T) {
	check := func(s []byte) {
		sa := suffixArray(s)
		m := len(s) + 1
		if len(sa) != m {
			t.Fatalf("sa length %d, want %d", len(sa), m)
		}
		suffix := func(i int32) []byte { return s[i:] }
		if sa[0] != int32(len(s)) {
			t.Fatalf("sentinel suffix not first: sa[0]=%d", sa[0])
		}
		for i := 2; i < m; i++ {
			if bytes.Compare(suffix(sa[i-1]), suffix(sa[i])) >= 0 {
				t.Fatalf("suffixes out of order at %d for input %q", i, s)
			}
		}
	}
	check([]byte("banana"))
	check([]byte("aaaaaaaaaa"))
	check([]byte("mississippi"))
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 3000)
	rng.Read(buf)
	check(buf)
	for i := range buf {
		buf[i] = byte(rng.Intn(3)) // small alphabet stresses prefix doubling
	}
	check(buf)
}

func benchCodec(b *testing.B, id ID, compress bool) {
	in := testInputs()["tuples"]
	c := ByID(id)
	comp := c.Compress(nil, in)
	b.SetBytes(int64(len(in)))
	b.ReportMetric(float64(len(in))/float64(len(comp)), "ratio")
	b.ResetTimer()
	if compress {
		for i := 0; i < b.N; i++ {
			c.Compress(nil, in)
		}
		return
	}
	for i := 0; i < b.N; i++ {
		c.Decompress(nil, comp)
	}
}

func BenchmarkCompressLZ4A8(b *testing.B)      { benchCodec(b, LZ4Fastest, true) }
func BenchmarkCompressLZ4(b *testing.B)        { benchCodec(b, LZ4Default, true) }
func BenchmarkCompressLZ4HC16(b *testing.B)    { benchCodec(b, LZ4HC16, true) }
func BenchmarkCompressSnappy(b *testing.B)     { benchCodec(b, Snappy, true) }
func BenchmarkCompressDeflate1(b *testing.B)   { benchCodec(b, Deflate1, true) }
func BenchmarkCompressDeflate6(b *testing.B)   { benchCodec(b, Deflate6, true) }
func BenchmarkCompressBWT(b *testing.B)        { benchCodec(b, BWT, true) }
func BenchmarkDecompressLZ4(b *testing.B)      { benchCodec(b, LZ4Default, false) }
func BenchmarkDecompressDeflate6(b *testing.B) { benchCodec(b, Deflate6, false) }
