// Package relation implements the paper's data model (Section 2): the
// relational model with append-only relations, tuples carrying their
// publication time, and the two indexing keys RJoin derives from a tuple
// — the attribute-level key Rel+Attr and the value-level key
// Rel+Attr+Value.
package relation

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"rjoin/internal/id"
)

// Kind discriminates the value types the SQL subset supports.
type Kind uint8

const (
	// KindInt is a 64-bit integer value.
	KindInt Kind = iota
	// KindString is a string value.
	KindString
)

// Value is a typed attribute value. It is a comparable struct so values
// can key maps directly (duplicate elimination, candidate tables).
type Value struct {
	Kind Kind
	Int  int64
	Str  string
}

// Int64 returns an integer Value.
func Int64(v int64) Value { return Value{Kind: KindInt, Int: v} }

// String64 returns a string Value.
func String64(s string) Value { return Value{Kind: KindString, Str: s} }

// String renders the value the way it appears in keys and query text.
func (v Value) String() string {
	if v.Kind == KindInt {
		return strconv.FormatInt(v.Int, 10)
	}
	return v.Str
}

// Equal reports value equality (kind and payload).
func (v Value) Equal(o Value) bool { return v == o }

// AppendCanonical appends an injective binary encoding of the value —
// kind tag, uvarint length, payload — so concatenated encodings of
// value sequences collide only for equal sequences. It is the one
// encoding behind both the owner-side DISTINCT row filter and the
// aggregation group keys; keep them on this helper so the injectivity
// argument covers every user.
func AppendCanonical(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	if v.Kind == KindInt {
		// The payload is String()'s, rendered without allocating it.
		var digits [20]byte
		s := strconv.AppendInt(digits[:0], v.Int, 10)
		b = binary.AppendUvarint(b, uint64(len(s)))
		return append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(len(v.Str)))
	return append(b, v.Str...)
}

// ReadCanonical is AppendCanonical's inverse: it decodes the value
// encoded at the start of b and returns it with the rest of b. It
// accepts exactly the bytes AppendCanonical writes — an unknown kind, a
// truncated or overlong length, or an integer payload other than the
// value's decimal rendering is an error — so a decoded value re-encodes
// to the bytes it was read from.
func ReadCanonical(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, nil, fmt.Errorf("relation: canonical value: empty input")
	}
	kind := Kind(b[0])
	n, k := binary.Uvarint(b[1:])
	if k <= 0 || (k > 1 && b[k] == 0) {
		return Value{}, nil, fmt.Errorf("relation: canonical value: bad length")
	}
	b = b[1+k:]
	if n > uint64(len(b)) {
		return Value{}, nil, fmt.Errorf("relation: canonical value: %d-byte payload, %d left", n, len(b))
	}
	p, rest := b[:n], b[n:]
	switch kind {
	case KindInt:
		i, err := strconv.ParseInt(string(p), 10, 64)
		var digits [20]byte
		if err != nil || string(strconv.AppendInt(digits[:0], i, 10)) != string(p) {
			return Value{}, nil, fmt.Errorf("relation: canonical value: integer payload %q", p)
		}
		return Int64(i), rest, nil
	case KindString:
		return String64(string(p)), rest, nil
	}
	return Value{}, nil, fmt.Errorf("relation: canonical value: kind %d", kind)
}

// Schema describes one relation: its name and ordered attribute names.
type Schema struct {
	Relation string
	Attrs    []string
	index    map[string]int
	attrKeys []Key // interned Rel+Attr keys, in Attrs order
}

// NewSchema builds a schema, validating that attribute names are unique
// and non-empty.
func NewSchema(relation string, attrs ...string) (*Schema, error) {
	if relation == "" {
		return nil, fmt.Errorf("relation: empty relation name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: schema %s has no attributes", relation)
	}
	s := &Schema{Relation: relation, Attrs: attrs, index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation: schema %s has an empty attribute name", relation)
		}
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("relation: schema %s repeats attribute %s", relation, a)
		}
		s.index[a] = i
	}
	s.attrKeys = make([]Key, len(attrs))
	for i, a := range attrs {
		s.attrKeys[i] = AttrKeyOf(relation, a)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for literals in tests
// and generators.
func MustSchema(relation string, attrs ...string) *Schema {
	s, err := NewSchema(relation, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// AttrKeys returns the interned attribute-level keys Rel+Attr, in
// attribute order. The slice is the schema's own; callers must not
// mutate it.
func (s *Schema) AttrKeys() []Key { return s.attrKeys }

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Attrs) }

// AttrIndex returns the position of the named attribute and whether it
// exists.
func (s *Schema) AttrIndex(attr string) (int, bool) {
	i, ok := s.index[attr]
	return i, ok
}

// Tuple is one published row. PubTime is pubT(t), the virtual time the
// tuple entered the network; PubSeq is a network-wide publication
// sequence number used as the "tuple clock" for tuple-based windows and
// as a unique identity for bag semantics. Publisher is the ring
// identifier of the publishing node — with PubSeq it is the identity
// answer provenance reports a contributing base tuple by.
type Tuple struct {
	Schema    *Schema
	Values    []Value
	PubTime   int64
	PubSeq    int64
	Publisher uint64
}

// NewTuple validates arity and builds a tuple.
func NewTuple(s *Schema, values ...Value) (*Tuple, error) {
	if len(values) != s.Arity() {
		return nil, fmt.Errorf("relation: tuple arity %d does not match schema %s/%d",
			len(values), s.Relation, s.Arity())
	}
	return &Tuple{Schema: s, Values: values}, nil
}

// MustTuple is NewTuple that panics on error.
func MustTuple(s *Schema, values ...Value) *Tuple {
	t, err := NewTuple(s, values...)
	if err != nil {
		panic(err)
	}
	return t
}

// Relation returns the tuple's relation name.
func (t *Tuple) Relation() string { return t.Schema.Relation }

// Value returns the value of the named attribute.
func (t *Tuple) Value(attr string) (Value, bool) {
	i, ok := t.Schema.AttrIndex(attr)
	if !ok {
		return Value{}, false
	}
	return t.Values[i], true
}

// String renders the tuple as Rel(v1, v2, ...).
func (t *Tuple) String() string {
	parts := make([]string, len(t.Values))
	for i, v := range t.Values {
		parts[i] = v.String()
	}
	return t.Schema.Relation + "(" + strings.Join(parts, ", ") + ")"
}

// AttrKey returns the attribute-level index key Rel+Attr. The '+' is
// the paper's concatenation operator; using it literally keeps keys
// unambiguous because relation and attribute names exclude '+'.
func AttrKey(rel, attr string) string { return rel + "+" + attr }

// ValueKey returns the value-level index key Rel+Attr+Value.
func ValueKey(rel, attr string, v Value) string {
	return rel + "+" + attr + "+" + v.String()
}

// Key is an index key (Rel+Attr or Rel+Attr+Value) carrying both its
// string form and its ring identifier Hash(key), computed once. Every
// layer passes Keys instead of raw strings so the consistent hash —
// by far the most expensive step of routing — is never re-derived for
// a key the process has seen before.
//
// A Key is one word: a pointer to its interned record. Every non-zero
// Key comes from the intern tables below, which hold exactly one record
// per key text, so two Keys are == exactly when their texts are equal,
// and a map keyed by Key hashes and compares a pointer, never the text.
type Key struct{ p *keyRec }

// keyRec is the one interned record of a key text.
type keyRec struct {
	s string
	h id.ID
}

// String returns the paper's textual key form ("" for the zero Key).
func (k Key) String() string {
	if k.p == nil {
		return ""
	}
	return k.p.s
}

// ID returns the cached ring identifier: id.HashKey(k.String()) for a
// Key from the intern tables, 0 for the zero Key.
func (k Key) ID() id.ID {
	if k.p == nil {
		return 0
	}
	return k.p.h
}

// IsZero reports whether k's text is empty: the zero Key, or KeyOf("").
func (k Key) IsZero() bool { return k.String() == "" }

// The intern tables memoize key → ring-identifier bindings process-wide.
// Contents are a pure function of the key text, so sharing them across
// concurrently running simulations is harmless and deterministic.
// internByString is the identity table: the one place a record is made,
// with LoadOrStore, so two goroutines interning one fresh text agree on
// its record. Attribute-level keys are also interned on the (rel, attr)
// pair and value-level keys on the (rel, attr, value) triple, so a hit
// skips the string concatenation as well as the hash; those two tables
// only cache Keys the identity table made. The tables grow with the
// number of distinct keys ever derived and are never evicted — the
// deliberate trade for a hash-free hot path; at the simulated scales
// (10^5-10^6 keys) this is a few tens of megabytes.
var (
	internByString sync.Map // string → Key
	internByPair   sync.Map // attrPair → Key
	internByTriple sync.Map // valueTriple → Key
)

type attrPair struct{ rel, attr string }

type valueTriple struct {
	rel, attr string
	val       Value
}

// KeyOf returns the interned Key for an arbitrary key string.
func KeyOf(s string) Key {
	if k, ok := internByString.Load(s); ok {
		return k.(Key)
	}
	k, _ := internByString.LoadOrStore(s, Key{&keyRec{s: s, h: id.HashKey(s)}})
	return k.(Key)
}

// KeyOfBytes returns KeyOf(string(b)) without keeping the text: a hit
// looks b up through a conversion that does not escape, so it allocates
// nothing while the text fits the 32-byte buffer Go converts short
// strings in; a longer text allocates its string on every call, and a
// miss interns a copy.
func KeyOfBytes(b []byte) Key {
	if k, ok := internByString.Load(string(b)); ok {
		return k.(Key)
	}
	return KeyOf(string(b))
}

// AttrKeyOf returns the interned attribute-level Key Rel+Attr without
// materialising the key string on a hit.
func AttrKeyOf(rel, attr string) Key {
	p := attrPair{rel: rel, attr: attr}
	if k, ok := internByPair.Load(p); ok {
		return k.(Key)
	}
	k := KeyOf(AttrKey(rel, attr))
	internByPair.Store(p, k)
	return k
}

// ValueKeyOf returns the interned value-level Key Rel+Attr+Value
// without materialising the key string on a hit.
func ValueKeyOf(rel, attr string, v Value) Key {
	t := valueTriple{rel: rel, attr: attr, val: v}
	if k, ok := internByTriple.Load(t); ok {
		return k.(Key)
	}
	k := KeyOf(ValueKey(rel, attr, v))
	internByTriple.Store(t, k)
	return k
}

// Keys returns the 2*k index keys of a k-attribute tuple, attribute
// level and value level for every attribute, in schema order — exactly
// the keys Procedure 1 publishes a new tuple under. The attribute-level
// slice is the schema's (AttrKeys), shared; callers must not mutate it.
func (t *Tuple) Keys() (attrKeys, valueKeys []Key) {
	return t.Schema.attrKeys, t.AppendValueKeys(make([]Key, 0, len(t.Values)))
}

// AppendValueKeys appends the tuple's value-level index keys, in schema
// order, to dst: Keys' second result without a fresh slice.
func (t *Tuple) AppendValueKeys(dst []Key) []Key {
	rel := t.Schema.Relation
	for i, attr := range t.Schema.Attrs {
		dst = append(dst, ValueKeyOf(rel, attr, t.Values[i]))
	}
	return dst
}

// Catalog is a set of schemas addressed by relation name.
type Catalog struct {
	byName map[string]*Schema
}

// NewCatalog builds a catalog from schemas.
func NewCatalog(schemas ...*Schema) (*Catalog, error) {
	c := &Catalog{byName: make(map[string]*Schema, len(schemas))}
	for _, s := range schemas {
		if err := c.Add(s); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Add inserts a schema, rejecting duplicate relation names.
func (c *Catalog) Add(s *Schema) error {
	if _, dup := c.byName[s.Relation]; dup {
		return fmt.Errorf("relation: catalog already has relation %s", s.Relation)
	}
	c.byName[s.Relation] = s
	return nil
}

// Schema looks up a relation by name.
func (c *Catalog) Schema(name string) (*Schema, bool) {
	s, ok := c.byName[name]
	return s, ok
}
