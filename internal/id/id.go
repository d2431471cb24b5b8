// Package id implements the Chord identifier space used by every layer of
// the system: 64-bit ring identifiers produced by consistent hashing, and
// the modular interval arithmetic Chord's routing rules are defined in
// terms of.
//
// The paper uses m-bit identifiers produced by SHA-1 ("large enough to
// avoid collisions"). We truncate SHA-1 to 64 bits, which is collision
// free with overwhelming probability at the simulated scales (10^3-10^4
// nodes, 10^5-10^6 keys) while letting identifiers be ordinary uint64
// values with cheap arithmetic.
package id

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
)

// Bits is the width m of the identifier space. Identifiers live on the
// ring [0, 2^Bits).
const Bits = 64

// ID is a point on the Chord identifier circle.
type ID uint64

// HashKey maps an arbitrary string key to its ring identifier using
// consistent hashing (SHA-1 truncated to 64 bits), mirroring the paper's
// Hash(k) function.
func HashKey(key string) ID {
	sum := sha1.Sum([]byte(key))
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// String renders the identifier as fixed-width hex, convenient for logs
// and deterministic test output.
func (x ID) String() string { return fmt.Sprintf("%016x", uint64(x)) }

// Add returns x + k (mod 2^Bits). Used to compute finger starts
// (n + 2^(i-1)).
func (x ID) Add(k uint64) ID { return x + ID(k) }

// Dist returns the clockwise distance from x to y on the ring.
func Dist(x, y ID) uint64 { return uint64(y - x) }

// SortByDist orders xs by dist — each element's clockwise distance from
// where a visit starts — nearest first, equal distances in their given
// order. It is the one ring-order sort: an RIC walk's keys and a grouped
// send's legs. An insertion sort, because both are a handful of
// elements and sort.Slice's closure and swapper allocate.
func SortByDist[T any](xs []T, dist func(*T) uint64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && dist(&xs[j]) < dist(&xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Between reports whether z lies in the open interval (x, y) walking
// clockwise from x to y. When x == y the interval is the whole ring
// minus {x}, matching Chord's convention for a ring with one known node.
func Between(z, x, y ID) bool {
	if x == y {
		return z != x
	}
	if x < y {
		return x < z && z < y
	}
	return z > x || z < y
}

// BetweenRightIncl reports whether z lies in the half-open interval
// (x, y] walking clockwise. This is the interval used by Chord's
// successor rule: Successor(id) is the first node n with
// id in (pred(n), n].
func BetweenRightIncl(z, x, y ID) bool {
	if x == y {
		return true // interval covers the full ring
	}
	if x < y {
		return x < z && z <= y
	}
	return z > x || z <= y
}

// FingerStart returns the start of the i-th finger interval of node n:
// n + 2^i (mod 2^m), for i in [0, Bits).
func FingerStart(n ID, i int) ID {
	return n + ID(uint64(1)<<uint(i))
}
