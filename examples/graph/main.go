// Graph-processing demo (paper §5.3): the same PageRank-style kernel and
// random vertex updates over AoS, SoA and GS-DRAM vertex layouts, plus a
// pixel-channel demo of pattern 2's dual-stride gathers.
//
// Run with: go run ./examples/graph [-vertices N] [-degree D]
package main

import (
	"flag"
	"fmt"
	"log"

	"gsdram"
	"gsdram/internal/machine"
	"gsdram/internal/pixels"
)

func main() {
	vertices := flag.Int("vertices", 16384, "vertex count (multiple of 8)")
	degree := flag.Int("degree", 8, "average out-degree")
	flag.Parse()

	opts := gsdram.DefaultOptions() // seed 42
	opts.Txns = 2000                // vertex updates
	r, err := gsdram.RunGraph(*vertices, *degree, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(r.Table())
	fmt.Println("GS-DRAM tracks SoA on the scan-heavy kernel and AoS on random updates —")
	fmt.Println("the graph-processing analogue of the database result.")
	fmt.Println()

	// Pattern 2 demo: dual-stride channel-pair gathers from a pixel image.
	mach, err := machine.Default()
	if err != nil {
		log.Fatal(err)
	}
	img, err := pixels.New(mach, 16, true)
	if err != nil {
		log.Fatal(err)
	}
	for p := 0; p < img.N(); p++ {
		for c := 0; c < pixels.NumChannels; c++ {
			if err := img.Set(p, c, uint64(p*100+c)); err != nil {
				log.Fatal(err)
			}
		}
	}
	pg, err := img.GatherPairs(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pattern-2 (dual-stride) gather, one line read:")
	for i, pix := range pg.Pixel {
		fmt.Printf("  pixel %d: R=%d G=%d Depth=%d Stencil=%d\n",
			pix, pg.Values[i][0], pg.Values[i][1], pg.Values[i][2], pg.Values[i][3])
	}
}
