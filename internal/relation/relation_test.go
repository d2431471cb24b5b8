package relation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"rjoin/internal/id"
)

func TestValueString(t *testing.T) {
	if Int64(42).String() != "42" {
		t.Fatal("int value string")
	}
	if String64("abc").String() != "abc" {
		t.Fatal("string value string")
	}
	if Int64(-7).String() != "-7" {
		t.Fatal("negative int value string")
	}
}

func TestValueEqualityAndMapKey(t *testing.T) {
	m := map[Value]int{}
	m[Int64(5)] = 1
	m[String64("5")] = 2
	if len(m) != 2 {
		t.Fatal("int 5 and string 5 must be distinct map keys")
	}
	if !Int64(5).Equal(Int64(5)) || Int64(5).Equal(Int64(6)) {
		t.Fatal("Equal wrong for ints")
	}
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", "A"); err == nil {
		t.Fatal("empty relation name accepted")
	}
	if _, err := NewSchema("R"); err == nil {
		t.Fatal("schema with no attributes accepted")
	}
	if _, err := NewSchema("R", "A", "A"); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	if _, err := NewSchema("R", ""); err == nil {
		t.Fatal("empty attribute accepted")
	}
	s, err := NewSchema("R", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 2 {
		t.Fatal("arity")
	}
	if i, ok := s.AttrIndex("B"); !ok || i != 1 {
		t.Fatal("AttrIndex")
	}
	if _, ok := s.AttrIndex("Z"); ok {
		t.Fatal("missing attribute found")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema did not panic")
		}
	}()
	MustSchema("R", "A", "A")
}

func TestTupleArityChecked(t *testing.T) {
	s := MustSchema("R", "A", "B")
	if _, err := NewTuple(s, Int64(1)); err == nil {
		t.Fatal("short tuple accepted")
	}
	tp := MustTuple(s, Int64(1), Int64(2))
	if tp.Relation() != "R" {
		t.Fatal("relation name")
	}
	if v, ok := tp.Value("B"); !ok || v.Int != 2 {
		t.Fatal("Value lookup")
	}
	if _, ok := tp.Value("Z"); ok {
		t.Fatal("missing attr lookup succeeded")
	}
	if tp.String() != "R(1, 2)" {
		t.Fatalf("String() = %q", tp.String())
	}
}

func TestKeysMatchProcedure1(t *testing.T) {
	s := MustSchema("R", "A", "B", "C")
	tp := MustTuple(s, Int64(2), Int64(5), Int64(8))
	attrKeys, valueKeys := tp.Keys()
	wantAttr := []string{"R+A", "R+B", "R+C"}
	wantValue := []string{"R+A+2", "R+B+5", "R+C+8"}
	for i := range wantAttr {
		if attrKeys[i].String() != wantAttr[i] {
			t.Fatalf("attr key %d = %q, want %q", i, attrKeys[i], wantAttr[i])
		}
		if valueKeys[i].String() != wantValue[i] {
			t.Fatalf("value key %d = %q, want %q", i, valueKeys[i], wantValue[i])
		}
	}
	if &attrKeys[0] != &s.AttrKeys()[0] {
		t.Fatal("Keys' attribute-level slice is not the schema's")
	}
	prefix := KeyOf("kept")
	if got := tp.AppendValueKeys([]Key{prefix}); len(got) != 4 || got[0] != prefix || got[1] != valueKeys[0] || got[3] != valueKeys[2] {
		t.Fatalf("AppendValueKeys after %s = %v, want it followed by %v", prefix, got, valueKeys)
	}
}

func TestKeyCachesRingID(t *testing.T) {
	for _, s := range []string{"R+A", "R+A+2", "S+B+x", "R+A#r3"} {
		k := KeyOf(s)
		if k.String() != s {
			t.Fatalf("KeyOf(%q).String() = %q", s, k.String())
		}
		if k.ID() != id.HashKey(s) {
			t.Fatalf("KeyOf(%q).ID() = %v, want id.HashKey = %v", s, k.ID(), id.HashKey(s))
		}
	}
	// The triple-interned value key must agree with the string form.
	if ValueKeyOf("S", "B", Int64(6)) != KeyOf("S+B+6") {
		t.Fatal("ValueKeyOf and KeyOf disagree")
	}
	if AttrKeyOf("S", "B") != KeyOf("S+B") {
		t.Fatal("AttrKeyOf and KeyOf disagree")
	}
	if KeyOf("R+A").IsZero() || (Key{}).IsZero() == false {
		t.Fatal("IsZero")
	}
}

// TestKeyIdentity: a Key is its interned record, so Keys compare by
// identity — every way of deriving one text yields the == Key, also when
// goroutines intern a fresh text at once — and the zero Key is the empty
// text with ring identifier 0.
var identityRuns atomic.Int64

func TestKeyIdentity(t *testing.T) {
	if k := ValueKeyOf("KI", "B", Int64(6)); k != KeyOf("KI+B+6") || k != KeyOf(ValueKey("KI", "B", Int64(6))) {
		t.Fatal("ValueKeyOf and KeyOf of one text are different Keys")
	}
	if k := AttrKeyOf("KI", "B"); k != KeyOf("KI+B") || k == KeyOf("KI+C") {
		t.Fatal("AttrKeyOf and KeyOf of one text are different Keys, or two texts one")
	}

	const goroutines, texts = 8, 1000
	rel := fmt.Sprintf("KeyIdentity%d", identityRuns.Add(1)) // fresh texts under -count
	got := make([][]Key, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([]Key, texts)
			<-start
			for i := range keys {
				// Half the goroutines derive each key from its parts, half
				// from its text: all of them race for every text.
				if g%2 == 0 {
					keys[i] = ValueKeyOf(rel, "A", Int64(int64(i)))
				} else {
					keys[i] = KeyOf(ValueKey(rel, "A", Int64(int64(i))))
				}
			}
			got[g] = keys
		}()
	}
	close(start)
	wg.Wait()
	seen := make(map[Key]int, texts)
	for i, k := range got[0] {
		if want := ValueKey(rel, "A", Int64(int64(i))); k.String() != want || k.ID() != id.HashKey(want) {
			t.Fatalf("text %d interned as %q/%v", i, k, k.ID())
		}
		if j, dup := seen[k]; dup {
			t.Fatalf("texts %d and %d share one Key", j, i)
		}
		seen[k] = i
		for g := 1; g < goroutines; g++ {
			if got[g][i] != k {
				t.Fatalf("goroutines 0 and %d hold two Keys for %q", g, k)
			}
		}
	}

	var zero Key
	if zero.String() != "" || zero.ID() != 0 || !zero.IsZero() || KeyOf("x").IsZero() {
		t.Fatalf("zero Key: String %q, ID %v, IsZero %v", zero.String(), zero.ID(), zero.IsZero())
	}
	if n := unsafe.Sizeof(Key{}); n != 8 {
		t.Fatalf("a Key is %d bytes, want one word", n)
	}
}

// TestInternedKeyHitsAllocateNothing: a key derived before is found by
// its parts, without building its string again, and a tuple's value
// keys append into a buffer with room for nothing.
func TestInternedKeyHitsAllocateNothing(t *testing.T) {
	AttrKeyOf("S", "B")
	ValueKeyOf("S", "B", Int64(6))
	ValueKeyOf("S", "B", String64("x"))
	tp := MustTuple(MustSchema("S", "A", "B"), String64("x"), Int64(6))
	room := tp.AppendValueKeys(nil)
	for name, f := range map[string]func(){
		"AttrKeyOf":         func() { AttrKeyOf("S", "B") },
		"ValueKeyOf int":    func() { ValueKeyOf("S", "B", Int64(6)) },
		"ValueKeyOf string": func() { ValueKeyOf("S", "B", String64("x")) },
		"AppendValueKeys":   func() { room = tp.AppendValueKeys(room[:0]) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s hit: %v allocations", name, n)
		}
	}
}

// TestKeyOfBytesAllocs: KeyOfBytes returns the Key KeyOf interns for
// the same text, and a hit allocates nothing for texts up to 32 bytes.
func TestKeyOfBytesAllocs(t *testing.T) {
	for _, n := range []int{0, 1, 27, 31, 32, 33, 64} {
		text := []byte(strings.Repeat("k", n))
		if n > 0 {
			text[0] = 0 // aggregator keys start with a NUL
		}
		k := KeyOfBytes(text) // a miss interns it
		if want := KeyOf(string(text)); k != want || k.String() != string(text) {
			t.Fatalf("%d bytes: KeyOfBytes = %q, KeyOf = %q", n, k, want)
		}
		allocs := testing.AllocsPerRun(100, func() { k = KeyOfBytes(text) })
		if k != KeyOf(string(text)) {
			t.Fatalf("%d bytes: a hit returned another Key", n)
		}
		if n <= 32 && allocs != 0 {
			t.Errorf("%d-byte hit: %v allocations, want 0", n, allocs)
		}
	}
}

// TestAppendCanonicalEncoding: the encoding is kind tag, uvarint length
// and String()'s bytes, and appending into room allocates nothing.
func TestAppendCanonicalEncoding(t *testing.T) {
	for _, v := range []Value{Int64(0), Int64(-9223372036854775808), Int64(12), String64("12"), String64(""), String64("1|B=2")} {
		s := v.String()
		want := append(binary.AppendUvarint([]byte{byte(v.Kind)}, uint64(len(s))), s...)
		if got := AppendCanonical(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("AppendCanonical(%#v) = %q, want %q", v, got, want)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { AppendCanonical(buf[:0], Int64(-42)) }); n != 0 {
		t.Fatalf("AppendCanonical of an int allocates %v times", n)
	}
}

// TestCanonicalRoundTrip: ReadCanonical gives back every value
// AppendCanonical encoded, alone and as a column of mixed kinds read in
// sequence, keeps an integer and a string of the same rendering apart,
// and errors on every proper prefix of an encoding.
func TestCanonicalRoundTrip(t *testing.T) {
	col := []Value{
		Int64(math.MinInt64), Int64(math.MaxInt64), Int64(-1), Int64(0), Int64(127), Int64(128),
		String64(""), String64("\x00"), String64("a\x00b\x00"), String64(strings.Repeat("x", 300)),
		String64("\xff\xfe\xc0"), String64("ok\x80"),
		Int64(12), String64("12"),
	}
	var all []byte
	for _, v := range col {
		enc := AppendCanonical(nil, v)
		got, rest, err := ReadCanonical(enc)
		if err != nil || got != v || len(rest) != 0 {
			t.Fatalf("ReadCanonical(%q) = %#v, %q, %v; want %#v", enc, got, rest, err, v)
		}
		for n := range len(enc) {
			if _, _, err := ReadCanonical(enc[:n]); err == nil {
				t.Fatalf("%#v: the %d-byte prefix of its %d-byte encoding decodes", v, n, len(enc))
			}
		}
		all = AppendCanonical(all, v)
	}
	for i, b := 0, all; i < len(col); i++ {
		var v Value
		var err error
		if v, b, err = ReadCanonical(b); err != nil || v != col[i] {
			t.Fatalf("column value %d: %#v, %v; want %#v", i, v, err, col[i])
		}
		if i == len(col)-1 && len(b) != 0 {
			t.Fatalf("%d bytes left after the column", len(b))
		}
	}
	for _, bad := range [][]byte{{2, 0}, {0, 2, '0', '1'}, {0, 2, '-', '0'}, {0, 1, '+'}, {1, 0x80, 0}, {0, 0}} {
		if v, _, err := ReadCanonical(bad); err == nil {
			t.Errorf("ReadCanonical(%q) = %#v, want an error: AppendCanonical writes no such bytes", bad, v)
		}
	}
}

// FuzzCanonicalRoundTrip: an integer and a string, encoded back to back,
// decode to themselves with nothing left, and every proper prefix of the
// pair errors. Arbitrary input never panics the decoder, and whatever it
// accepts re-encodes to the bytes it consumed.
func FuzzCanonicalRoundTrip(f *testing.F) {
	f.Add(int64(0), "", []byte{})
	f.Add(int64(math.MinInt64), "12", []byte{0, 2, '1', '2'})
	f.Add(int64(128), "a\x00b", []byte{1, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, i int64, s string, raw []byte) {
		enc := AppendCanonical(AppendCanonical(nil, Int64(i)), String64(s))
		a, rest, err := ReadCanonical(enc)
		if err != nil || a != Int64(i) {
			t.Fatalf("integer %d: %#v, %v", i, a, err)
		}
		b, rest, err := ReadCanonical(rest)
		if err != nil || b != String64(s) || len(rest) != 0 {
			t.Fatalf("string %q: %#v, %v, %d bytes left", s, b, err, len(rest))
		}
		for n := range len(enc) {
			v, rest, err := ReadCanonical(enc[:n])
			if err == nil {
				_, _, err = ReadCanonical(rest)
			}
			if err == nil {
				t.Fatalf("the %d-byte prefix of a %d-byte pair decodes to two values, the first %#v", n, len(enc), v)
			}
		}
		if v, rest, err := ReadCanonical(raw); err == nil {
			if got := AppendCanonical(nil, v); !bytes.Equal(got, raw[:len(raw)-len(rest)]) {
				t.Fatalf("%q decodes to %#v, which encodes as %q", raw, v, got)
			}
		}
	})
}

func TestKeyBuilders(t *testing.T) {
	if AttrKey("S", "B") != "S+B" {
		t.Fatal("AttrKey")
	}
	if ValueKey("S", "B", Int64(6)) != "S+B+6" {
		t.Fatal("ValueKey int")
	}
	if ValueKey("S", "B", String64("x")) != "S+B+x" {
		t.Fatal("ValueKey string")
	}
}

func TestCatalog(t *testing.T) {
	r := MustSchema("R", "A")
	s := MustSchema("S", "B")
	c, err := NewCatalog(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Schema("R"); !ok || got != r {
		t.Fatal("catalog lookup")
	}
	if _, ok := c.Schema("T"); ok {
		t.Fatal("missing relation found")
	}
	if err := c.Add(MustSchema("R", "X")); err == nil {
		t.Fatal("duplicate relation accepted")
	}
}

// Property: value-level keys are injective per attribute for int values
// (distinct values never share a key).
func TestValueKeyInjectiveProperty(t *testing.T) {
	f := func(a, b int64) bool {
		if a == b {
			return true
		}
		return ValueKey("R", "A", Int64(a)) != ValueKey("R", "A", Int64(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
