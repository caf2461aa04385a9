// Key-value store demo (paper §3.5 and §5.3): 8-byte keys and values
// stored as adjacent pairs. Inserts touch one line per pair; with
// GS-DRAM's pattern 1 (stride 2), a single gathered read returns eight
// keys (or eight values), doubling key-scan density.
//
// Run with: go run ./examples/kvstore
package main

import (
	"fmt"
	"log"

	"gsdram"
	"gsdram/internal/kvstore"
	"gsdram/internal/machine"
)

func main() {
	mach, err := machine.Default()
	if err != nil {
		log.Fatal(err)
	}
	st, err := kvstore.New(mach, 64, true)
	if err != nil {
		log.Fatal(err)
	}

	for i := 0; i < 24; i++ {
		if _, err := st.Insert(uint64(1000+i), uint64(9000+i)); err != nil {
			log.Fatal(err)
		}
	}

	keys, err := st.GatherKeys(1) // pairs 8..15
	if err != nil {
		log.Fatal(err)
	}
	vals, err := st.GatherValues(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("one pattern-1 read, keys of pairs 8-15:  ", keys)
	fmt.Println("one pattern-1 read, values of pairs 8-15:", vals)

	v, found, _, err := st.Lookup(keys[3])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup(%d) = %d (found=%v)\n", keys[3], v, found)

	// Line-fetch comparison on a larger store.
	opts := gsdram.DefaultOptions()
	opts.Seed = 7
	r, err := gsdram.RunKVStore(4096, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(r.Table())
}
