package scenario

import (
	"errors"
	"testing"
	"time"

	"pass/internal/arch"
	"pass/internal/netsim"
	"pass/internal/provenance"
	"pass/internal/ratelimit"
)

// fakeModel answers Publish from a scripted error list, one entry per
// call, and charges a latency of 10ms times the call number.
type fakeModel struct {
	arch.Model
	errs  []error
	calls int
}

func (f *fakeModel) Name() string { return "fake" }

func (f *fakeModel) Publish(arch.Pub) (time.Duration, error) {
	f.calls++
	d := time.Duration(f.calls) * 10 * time.Millisecond
	if f.calls <= len(f.errs) {
		return d, f.errs[f.calls-1]
	}
	return d, nil
}

func TestOffer(t *testing.T) {
	down := netsim.ErrSiteDown
	p := PubN(1, 0)
	for _, tc := range []struct {
		name        string
		errs        []error
		tries       int
		wantErr     bool
		want        Offered
		wantPublish int
	}{
		{"plain error returned after one try", []error{errors.New("corrupt index")}, 4,
			true, Offered{Tries: 1, Total: 10 * time.Millisecond}, 1},
		{"overload sheds after one try", []error{ratelimit.ErrOverload}, 4,
			false, Offered{Shed: true, Tries: 1, Total: 10 * time.Millisecond}, 1},
		{"unavailable uses up every try", []error{down, down, down}, 3,
			false, Offered{Tries: 3, Total: 60 * time.Millisecond}, 3},
		{"ack on try three", []error{down, down}, 4,
			false, Offered{Acked: true, Tries: 3, Total: 60 * time.Millisecond}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &fakeModel{errs: tc.errs}
			got, err := Offer(m, p, tc.tries)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if got != tc.want {
				t.Fatalf("Offer = %+v, want %+v", got, tc.want)
			}
			if m.calls != tc.wantPublish {
				t.Fatalf("%d Publish calls, want %d", m.calls, tc.wantPublish)
			}
		})
	}
}

// TestRawIDsMatchTaggedRecords pins Raw to the record its callers built
// by hand: digest {seq, seq>>8, tag}, the n attribute first, created at
// seq+1.
func TestRawIDsMatchTaggedRecords(t *testing.T) {
	for _, seq := range []int{0, 1, 255, 256, 65535} {
		var digest [32]byte
		digest[0], digest[1], digest[2] = byte(seq), byte(seq>>8), 0xE7
		_, want, err := provenance.NewRaw(digest, 64).
			Attrs(provenance.Attr("n", provenance.Int64(int64(seq))),
				provenance.Attr(provenance.KeyDomain, provenance.String("membership"))).
			CreatedAt(int64(seq) + 1).Build()
		if err != nil {
			t.Fatal(err)
		}
		got := Raw(seq, 0xE7, 3, provenance.Attr(provenance.KeyDomain, provenance.String("membership")))
		if got.ID != want || got.Origin != 3 {
			t.Fatalf("seq %d: Raw = %s at %d, want %s", seq, got.ID.Short(), got.Origin, want.Short())
		}
	}
}
