//go:build linux && amd64

package udpnet

import (
	"net"
	"syscall"
	"testing"
	"unsafe"
)

// TestSourceAddressFormatting: the cached source address is the string
// net.UDPAddr would print for the same raw sockaddr.
func TestSourceAddressFormatting(t *testing.T) {
	var sa4, sa6, mapped, unix syscall.RawSockaddrAny
	*(*syscall.RawSockaddrInet4)(unsafe.Pointer(&sa4)) = syscall.RawSockaddrInet4{
		Family: syscall.AF_INET, Port: 0x591b /* htons(7001) */, Addr: [4]byte{127, 0, 0, 1}}
	v6 := syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: 0x0100 /* htons(1) */, Scope_id: 1}
	copy(v6.Addr[:], net.ParseIP("fe80::2"))
	*(*syscall.RawSockaddrInet6)(unsafe.Pointer(&sa6)) = v6
	v6.Scope_id = 0
	copy(v6.Addr[:], net.ParseIP("::ffff:10.1.2.3"))
	*(*syscall.RawSockaddrInet6)(unsafe.Pointer(&mapped)) = v6
	unix.Addr.Family = syscall.AF_UNIX

	zone := ""
	if ifi, err := net.InterfaceByIndex(1); err == nil {
		zone = ifi.Name
	}
	cache := sourceCache{}
	for _, tc := range []struct {
		sa   *syscall.RawSockaddrAny
		want *net.UDPAddr
	}{
		{&sa4, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7001}},
		{&sa6, &net.UDPAddr{IP: net.ParseIP("fe80::2"), Port: 1, Zone: zone}},
		{&mapped, &net.UDPAddr{IP: net.ParseIP("10.1.2.3"), Port: 1}},
	} {
		k, ok := sockaddrKey(tc.sa)
		if !ok {
			t.Fatalf("no key for %v", tc.want)
		}
		for range 2 { // formatted, then cached
			if got := cache.addr(k); string(got) != tc.want.String() {
				t.Errorf("source address %q, want %q", got, tc.want)
			}
		}
	}
	if len(cache) != 3 {
		t.Errorf("%d cache entries for 3 sources", len(cache))
	}
	if _, ok := sockaddrKey(&unix); ok {
		t.Error("key built for a unix socket address")
	}
}
