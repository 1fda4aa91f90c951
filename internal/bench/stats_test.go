package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"gompi"
)

// TestExchangeBalance pins the tentpole's conservation property: on
// both devices, aggregate send bytes equal aggregate receive bytes on
// every transport path of the 4-rank exchange.
func TestExchangeBalance(t *testing.T) {
	for _, dev := range []gompi.DeviceKind{gompi.DeviceCH4, gompi.DeviceOriginal} {
		dev := dev
		t.Run(string(dev), func(t *testing.T) {
			st, err := ExchangeStats(gompi.Config{Device: dev}, 1024)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckExchangeBalance(st); err != nil {
				t.Fatal(err)
			}
			agg := st.Aggregate()
			// 4 ranks x 2 rounds x 4 destinations = 32 sends total,
			// split across self/shm/net by locality.
			total := agg.Self.Msgs + agg.ShmRecv.Msgs + agg.NetRecv.Msgs
			if total != 32 {
				t.Fatalf("delivered %d messages, want 32", total)
			}
			// The large round crosses every profile's eager limit, on
			// both devices.
			if agg.Eager.Msgs == 0 || agg.Rndv.Msgs == 0 {
				t.Fatalf("protocol split eager=%d rndv=%d, want both nonzero",
					agg.Eager.Msgs, agg.Rndv.Msgs)
			}
			if dev == gompi.DeviceCH4 {
				// 2 ranks per node: each rank's 2 remote peers ride the
				// netmod, the on-node peer the shmmod, itself the
				// self-loop.
				if agg.Self.Msgs != 8 || agg.ShmRecv.Msgs != 8 || agg.NetRecv.Msgs != 16 {
					t.Fatalf("locality split self=%d shm=%d net=%d, want 8/8/16",
						agg.Self.Msgs, agg.ShmRecv.Msgs, agg.NetRecv.Msgs)
				}
				if agg.Match.BinHits == 0 || agg.Match.WildHits != 0 {
					t.Fatalf("ch4 match hits bin=%d wild=%d, want binned only",
						agg.Match.BinHits, agg.Match.WildHits)
				}
			} else {
				// The baseline has no locality dispatch: everything is a
				// netmod AM packet matched in software (Linear mode, so
				// every hit is a wildcard-walk hit).
				if agg.Self.Msgs != 0 || agg.ShmRecv.Msgs != 0 || agg.NetRecv.Msgs != 32 {
					t.Fatalf("baseline split self=%d shm=%d net=%d, want 0/0/32",
						agg.Self.Msgs, agg.ShmRecv.Msgs, agg.NetRecv.Msgs)
				}
				if agg.Match.WildHits == 0 || agg.Match.BinHits != 0 {
					t.Fatalf("baseline match hits bin=%d wild=%d, want wildcard only",
						agg.Match.BinHits, agg.Match.WildHits)
				}
				if agg.Req.Allocs == 0 {
					t.Fatal("baseline exchanged without locked-pool request allocs")
				}
			}
		})
	}
}

// TestExchangeStatsJSON round-trips the full snapshot through JSON and
// checks the documented key shape.
func TestExchangeStatsJSON(t *testing.T) {
	st, err := ExchangeStats(gompi.Config{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Hz    float64 `json:"hz"`
		Ranks []struct {
			Rank    int `json:"rank"`
			Metrics struct {
				NetSend struct {
					Bytes int64 `json:"bytes"`
				} `json:"net_send"`
			} `json:"metrics"`
			VirtualCycles int64 `json:"virtual_cycles"`
		} `json:"ranks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if doc.Hz <= 0 || len(doc.Ranks) != ExchangeRanks {
		t.Fatalf("hz=%g ranks=%d", doc.Hz, len(doc.Ranks))
	}
	for _, r := range doc.Ranks {
		if r.Metrics.NetSend.Bytes == 0 || r.VirtualCycles == 0 {
			t.Fatalf("rank %d snapshot empty: %+v", r.Rank, r)
		}
	}
}
