// Package workload generates the paper's experimental workload
// (Section 8): a schema of 10 relations with 10 attributes each, value
// domains of 100 values, tuples drawn with a Zipf distribution both for
// the relation and for every attribute value (default θ = 0.9, "highly
// skewed"), and k-way chain-join queries whose adjacent joins share a
// relation, with relations and attributes chosen randomly.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rjoin/internal/query"
	"rjoin/internal/relation"
)

// Zipf draws ranks from a Zipf distribution P(i) ∝ 1/(i+1)^θ over
// [0, n). θ = 0 is uniform; the paper's default is θ = 0.9. (The
// standard library's rand.Zipf requires s > 1, which cannot express the
// paper's θ < 1 range, so the CDF is computed directly.)
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes the distribution for n ranks with skew theta.
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		panic("workload: Zipf over empty domain")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Next draws one rank using the provided source.
func (z *Zipf) Next(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Config describes a workload in the paper's terms.
type Config struct {
	Relations  int     // number of relations in the schema
	Attributes int     // attributes per relation
	Values     int     // value-domain size per attribute
	Theta      float64 // Zipf skew for relations and values
	JoinArity  int     // k in k-way join queries (k relations, k-1 joins)
}

// PaperConfig is the default workload of Section 8: 10 relations × 10
// attributes, 100 values, θ = 0.9, 4-way joins.
func PaperConfig() Config {
	return Config{Relations: 10, Attributes: 10, Values: 100, Theta: 0.9, JoinArity: 4}
}

// Generator produces tuples and queries deterministically from a seed.
type Generator struct {
	Cfg Config

	catalog *relation.Catalog
	schemas []*relation.Schema
	relZipf *Zipf
	valZipf *Zipf
	rng     *rand.Rand
}

// NewGenerator validates the config and builds the schema catalog with
// relations R0..R{n-1} and attributes A0..A{m-1}.
func NewGenerator(cfg Config, seed int64) (*Generator, error) {
	if cfg.Relations <= 0 || cfg.Attributes <= 0 || cfg.Values <= 0 {
		return nil, fmt.Errorf("workload: non-positive schema dimensions %+v", cfg)
	}
	if cfg.JoinArity < 2 || cfg.JoinArity > cfg.Relations {
		return nil, fmt.Errorf("workload: join arity %d outside [2, %d]", cfg.JoinArity, cfg.Relations)
	}
	g := &Generator{
		Cfg:     cfg,
		relZipf: NewZipf(cfg.Relations, cfg.Theta),
		valZipf: NewZipf(cfg.Values, cfg.Theta),
		rng:     rand.New(rand.NewSource(seed)),
	}
	attrs := make([]string, cfg.Attributes)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("A%d", j)
	}
	g.schemas = make([]*relation.Schema, cfg.Relations)
	schemas := make([]*relation.Schema, cfg.Relations)
	for i := range schemas {
		s, err := relation.NewSchema(fmt.Sprintf("R%d", i), attrs...)
		if err != nil {
			return nil, err
		}
		g.schemas[i] = s
		schemas[i] = s
	}
	cat, err := relation.NewCatalog(schemas...)
	if err != nil {
		return nil, err
	}
	g.catalog = cat
	return g, nil
}

// MustGenerator is NewGenerator that panics on error.
func MustGenerator(cfg Config, seed int64) *Generator {
	g, err := NewGenerator(cfg, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// Catalog returns the generated schema catalog.
func (g *Generator) Catalog() *relation.Catalog { return g.catalog }

// Tuple draws one tuple: the relation by Zipf rank, then every
// attribute value by an independent Zipf draw over the value domain.
func (g *Generator) Tuple() *relation.Tuple {
	s := g.schemas[g.relZipf.Next(g.rng)]
	vals := make([]relation.Value, s.Arity())
	for i := range vals {
		vals[i] = relation.Int64(int64(g.valZipf.Next(g.rng)))
	}
	return relation.MustTuple(s, vals...)
}

// Query draws one k-way chain-join query: k distinct relations chosen
// uniformly at random, adjacent relations joined on randomly chosen
// attributes (so the where clause has the paper's shape
// "R.A = S.B and S.C = J.F and J.C = K.D"), selecting one attribute of
// the first and last relation.
func (g *Generator) Query() *query.Query {
	k := g.Cfg.JoinArity
	perm := g.rng.Perm(g.Cfg.Relations)[:k]
	rels := make([]string, k)
	for i, ri := range perm {
		rels[i] = g.schemas[ri].Relation
	}
	attr := func() string { return fmt.Sprintf("A%d", g.rng.Intn(g.Cfg.Attributes)) }
	q := &query.Query{
		Relations: rels,
		Select: []query.SelectItem{
			{Col: query.ColRef{Rel: rels[0], Attr: attr()}},
			{Col: query.ColRef{Rel: rels[k-1], Attr: attr()}},
		},
	}
	for i := 0; i+1 < k; i++ {
		q.Joins = append(q.Joins, query.JoinCond{
			Left:  query.ColRef{Rel: rels[i], Attr: attr()},
			Right: query.ColRef{Rel: rels[i+1], Attr: attr()},
		})
	}
	return q
}

// WindowQuery is Query with a window restriction attached.
func (g *Generator) WindowQuery(w query.WindowSpec) *query.Query {
	q := g.Query()
	q.Window = w
	return q
}

// GroupQuery draws one aggregate chain-join query: the same join shape
// as Query, grouped by the first relation's selected attribute and
// aggregating the last relation's with COUNT(*), SUM and MAX. It draws
// exactly Query's random numbers, so generator streams stay aligned
// across plain and aggregate workloads.
func (g *Generator) GroupQuery() *query.Query {
	q := g.Query()
	group := q.Select[0].Col
	arg := q.Select[1].Col
	q.Select = []query.SelectItem{
		{Col: group},
		{IsConst: true, Const: relation.Int64(1), Agg: query.AggCount, Star: true},
		{Col: arg, Agg: query.AggSum},
		{Col: arg, Agg: query.AggMax},
	}
	q.GroupBy = []query.ColRef{group}
	return q
}
