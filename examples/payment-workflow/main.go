// Payment workflow: run Splicer's §III-A message protocol (Fig. 3) over an
// in-process transport. Splicer places the hubs (smooth nodes) on a
// Lightning-like network; the hubs form the key management group (KMG),
// which generates a fresh threshold key per payment and per
// transaction-unit. Each client encrypts its demand to its hub, which
// threshold-decrypts it, splits it into TUs and forwards each TU, freshly
// encrypted, to the recipient's hub; the ACKs flow back to the sender.
//
//	go run ./examples/payment-workflow
package main

import (
	"fmt"
	"log"

	splicer "github.com/splicer-pcn/splicer"
	"github.com/splicer-pcn/splicer/internal/protocol"
	"github.com/splicer-pcn/splicer/internal/transport"
)

func main() {
	g, err := splicer.BuildNetwork(splicer.NetworkSpec{Seed: 42, Nodes: 60})
	if err != nil {
		log.Fatal(err)
	}
	trace, err := splicer.GenerateWorkload(g, splicer.WorkloadSpec{Seed: 43, Rate: 50, Duration: 1})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := splicer.NewSimulation(g, splicer.Splicer)
	if err != nil {
		log.Fatal(err)
	}
	hubs := sim.Hubs()

	// Every smooth node sits on the KMG; any majority can decrypt.
	kmg, err := protocol.NewKMG(len(hubs), len(hubs)/2+1)
	if err != nil {
		log.Fatal(err)
	}
	tr := transport.NewInProc()
	hubAddr := func(h splicer.NodeID) transport.Address {
		return transport.Address(fmt.Sprintf("hub-%d", h))
	}
	resolver := func(r splicer.NodeID) (transport.Address, bool) {
		h, ok := sim.HubOf(r)
		return hubAddr(h), ok
	}
	for _, h := range hubs {
		node, err := protocol.NewSmoothNode(tr, hubAddr(h), kmg)
		if err != nil {
			log.Fatal(err)
		}
		node.SetResolver(resolver)
	}

	clients := map[splicer.NodeID]*protocol.Client{}
	fmt.Printf("hubs: %v (KMG threshold %d of %d)\n", hubs, len(hubs)/2+1, len(hubs))
	paid := 0
	for _, tx := range trace {
		if paid == 5 {
			break
		}
		ingress, ok := sim.HubOf(tx.Sender)
		if !ok {
			continue
		}
		egress, ok := sim.HubOf(tx.Recipient)
		if !ok {
			continue
		}
		c := clients[tx.Sender]
		if c == nil {
			addr := transport.Address(fmt.Sprintf("client-%d", tx.Sender))
			if c, err = protocol.NewClient(tr, addr, tx.Sender, hubAddr(ingress), kmg.Group()); err != nil {
				log.Fatal(err)
			}
			clients[tx.Sender] = c
		}
		if err := c.Pay(tx.Recipient, tx.Value); err != nil {
			log.Fatal(err)
		}
		paid++
		fmt.Printf("paid %7.2f tokens  %3d -> hub %3d -> hub %3d -> %3d  (acknowledged)\n",
			tx.Value, tx.Sender, ingress, egress, tx.Recipient)
	}
}
