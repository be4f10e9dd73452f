// Reconfig bench: the four partial-reconfiguration controllers head
// to head on the paper's 8 MB partial bitstream (§IV-A), plus a sweep
// over bitstream sizes showing where each mechanism's overhead lands.
package main

import (
	"fmt"
	"log"

	"advdet"
	"advdet/internal/fpga"
	"advdet/internal/pr"
	"advdet/internal/soc"
)

func main() {
	log.SetFlags(0)

	bitstream := fpga.DefaultFloorplan().PartialBitstreamBytes()
	fmt.Printf("partial bitstream for the %0.f%%-LUT partition: %.2f MB\n\n",
		fpga.DefaultFloorplan().Region.UtilPercent(fpga.XC7Z100)[0], float64(bitstream)/1e6)

	results, err := advdet.ReconfigThroughputs(bitstream)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %14s %10s %12s\n", "controller", "throughput", "time", "vs 400 MB/s")
	var pcapMBs, oursMBs float64
	for _, res := range results {
		fmt.Printf("%-12s %10.1f MB/s %7.2f ms %11.1f%%\n",
			res.Controller, res.MBPerSec, float64(res.Elapsed.Microseconds())/1e3, 100*res.MBPerSec/400)
		switch res.Controller {
		case "pcap":
			pcapMBs = res.MBPerSec
		case "dma-icap":
			oursMBs = res.MBPerSec
		}
	}
	fmt.Printf("\nspeedup of the DMA-ICAP controller over PCAP: %.2fx (paper: >2.6x)\n", oursMBs/pcapMBs)

	fmt.Println("\nsize sweep (ms to reconfigure):")
	sizes := []int{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}
	fmt.Printf("%-12s", "controller")
	for _, s := range sizes {
		fmt.Printf("%9dMiB", s>>20)
	}
	fmt.Println()
	for _, ctrl := range pr.All() {
		fmt.Printf("%-12s", ctrl.Name())
		for _, s := range sizes {
			res, err := pr.Measure(freshController(ctrl.Name()), s)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%12.2f", soc.Seconds(res.PS)*1e3)
		}
		fmt.Println()
	}

	fmt.Println("\nframe cost at 50 fps: one 20 ms slot per dusk<->dark transition")
	fmt.Println("(the pedestrian pipeline on the static partition keeps running).")
}

// freshController returns a new instance per measurement so the sweep
// never reuses in-flight state.
func freshController(name string) pr.Controller {
	for _, c := range pr.All() {
		if c.Name() == name {
			return c
		}
	}
	panic("unknown controller " + name)
}
