// Fixture for the seedrand analyzer, loaded as a restricted package:
// wall clock and global-rand reads are findings; seeded generators are
// the sanctioned alternative.
package a

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func flaggedNow() int64 {
	return time.Now().UnixNano() // want `time.Now in a`
}

func flaggedSince(t time.Time) time.Duration {
	return time.Since(t) // want `time.Since in a`
}

func flaggedUntil(t time.Time) time.Duration {
	return time.Until(t) // want `time.Until in a`
}

func flaggedGlobalRand() int {
	return rand.Intn(10) // want `global math/rand\.Intn in a`
}

func flaggedGlobalRandV2() uint64 {
	return randv2.Uint64() // want `global math/rand\.Uint64 in a`
}

func okSeeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

func okSeededV2(seed uint64) uint64 {
	r := randv2.New(randv2.NewPCG(seed, seed))
	return r.Uint64()
}
