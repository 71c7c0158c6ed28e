package main

import (
	"slices"
	"strings"
	"testing"
)

// TestSplitAddrs pins -seed parsing: entries are trimmed, and an empty
// or unresolvable entry is an error that names it rather than a peer
// that is silently never reached. Every case is an IP literal, so no
// case consults a name resolver.
func TestSplitAddrs(t *testing.T) {
	cases := []struct {
		in      string
		want    []string
		wantErr string // substring of the error; "" means success
	}{
		{in: "", want: nil},
		{in: "10.0.0.2:7701", want: []string{"10.0.0.2:7701"}},
		{in: "10.0.0.2:7701,10.0.0.3:7701", want: []string{"10.0.0.2:7701", "10.0.0.3:7701"}},
		{in: "10.0.0.2:7701, 10.0.0.3:7701", want: []string{"10.0.0.2:7701", "10.0.0.3:7701"}},
		{in: " 10.0.0.2:7701 ,\t[::1]:7701 ", want: []string{"10.0.0.2:7701", "[::1]:7701"}},
		{in: "10.0.0.2:7701,", wantErr: "empty address"},
		{in: ",10.0.0.2:7701", wantErr: "empty address"},
		{in: "10.0.0.2:7701,,10.0.0.3:7701", wantErr: "empty address"},
		{in: " ", wantErr: "empty address"},
		{in: "10.0.0.2:7701,10.0.0.3", wantErr: `"10.0.0.3"`},
		{in: "10.0.0.2:99999", wantErr: `"10.0.0.2:99999"`},
		{in: "[::1:7701", wantErr: `"[::1:7701"`},
	}
	for _, c := range cases {
		got, err := splitAddrs(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("splitAddrs(%q) = %q, %v; want an error containing %s", c.in, got, err, c.wantErr)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("splitAddrs(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
}

// TestCheckAddr covers -root, which is one address, not a list.
func TestCheckAddr(t *testing.T) {
	if got, err := checkAddr(" 127.0.0.1:7700 "); err != nil || got != "127.0.0.1:7700" {
		t.Errorf("checkAddr = %q, %v; want 127.0.0.1:7700", got, err)
	}
	if _, err := checkAddr("127.0.0.1:7700,127.0.0.1:7701"); err == nil {
		t.Error("checkAddr accepted a list")
	}
}
