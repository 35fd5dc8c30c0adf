package harness

import (
	"fmt"
	"strings"

	"tsnoop/internal/system"
	"tsnoop/internal/timing"
)

// EnvelopeRow is the Section 5 back-of-the-envelope bandwidth comparison
// for one topology and block size: the per-miss link-byte cost of
// timestamp snooping (address broadcast + data) versus a directory
// protocol's minimum (address + data point-to-point), and the implied
// upper bound on snooping's extra bandwidth.
type EnvelopeRow struct {
	Network      string
	Nodes        int
	BlockBytes   int
	TSBytes      int // broadcastLinks*ctrl + meanHops*data
	DirMinBytes  int // meanHops*ctrl + meanHops*data
	ExtraBoundPc float64
}

// Envelope computes the row for a topology and block size. For the
// 16-node butterfly with 64-byte blocks this reproduces the paper's
// numbers: TS 384 bytes (21*8 + 3*72), directory minimum 240 (3*8 + 3*72),
// extra bound 60%.
func Envelope(network string, nodes, blockBytes int) (EnvelopeRow, error) {
	topo, err := system.BuildTopology(network, nodes)
	if err != nil {
		return EnvelopeRow{}, err
	}
	meanHops := 3
	if network == system.NetTorus {
		meanHops = 2 // paper's stated mean for the 4x4
		if nodes != 16 {
			meanHops = int(topo.MeanHops() + 0.5)
		}
	}
	data := timing.DataMsgBytes(blockBytes)
	ts := topo.BroadcastLinks(0)*timing.CtrlBytes + meanHops*data
	dir := meanHops*timing.CtrlBytes + meanHops*data
	return EnvelopeRow{
		Network:      network,
		Nodes:        nodes,
		BlockBytes:   blockBytes,
		TSBytes:      ts,
		DirMinBytes:  dir,
		ExtraBoundPc: 100 * (float64(ts)/float64(dir) - 1),
	}, nil
}

// RenderEnvelope renders the Section 5 envelope across block sizes and
// machine sizes. Doubling the block size on the 16-node butterfly reduces
// the bound from 60% to 33%; growing the machine raises broadcast cost.
func RenderEnvelope() (string, error) {
	var b strings.Builder
	b.WriteString("Section 5 envelope: per-miss link bytes, TS-Snoop vs directory minimum\n")
	fmt.Fprintf(&b, "%-10s %6s %7s %9s %9s %12s\n", "network", "nodes", "block", "TS", "dir-min", "extra-bound")
	for _, net := range Networks {
		for _, nodes := range []int{4, 16, 64} {
			for _, block := range []int{64, 128} {
				row, err := Envelope(net, nodes, block)
				if err != nil {
					return "", err
				}
				fmt.Fprintf(&b, "%-10s %6d %7d %9d %9d %11.0f%%\n",
					row.Network, row.Nodes, row.BlockBytes, row.TSBytes, row.DirMinBytes, row.ExtraBoundPc)
			}
		}
	}
	return b.String(), nil
}
