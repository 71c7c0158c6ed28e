//go:build linux && amd64

package udpnet

// The linux fast path: batch datagram syscalls via raw sendmmsg(2) and
// recvmmsg(2). The stdlib syscall package exposes the syscall numbers
// but not wrappers, so the mmsghdr plumbing lives here, gated to
// linux/amd64 where the struct layout below is the kernel ABI; every
// other platform (and any runtime error here) falls back to the
// portable one-datagram-per-syscall path, so behaviour is identical
// everywhere — only the syscall count changes.

import (
	"net"
	"net/netip"
	"runtime"
	"syscall"
	"unsafe"

	"semdisco/internal/transport"
)

// mmsghdr mirrors the kernel's struct mmsghdr on amd64: a msghdr plus
// the per-message transferred byte count, padded to 8-byte alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// recvVlen is how many datagrams one recvmmsg call may return; each gets
// a full 64KB buffer so no UDP datagram can be truncated.
const recvVlen = 16

// sysSENDMMSG is sendmmsg(2) on linux/amd64; the stdlib syscall table
// predates the syscall and only carries SYS_RECVMMSG. The build tag
// above pins the architecture this number is valid for.
const sysSENDMMSG = 307

// sockaddrInet4 fills sa for an IPv4 destination, returning false for
// non-IPv4 addresses (those take the fallback write path).
func sockaddrInet4(sa *syscall.RawSockaddrInet4, a *net.UDPAddr) bool {
	ip4 := a.IP.To4()
	if ip4 == nil {
		return false
	}
	sa.Family = syscall.AF_INET
	sa.Port = uint16(a.Port)<<8 | uint16(a.Port)>>8 // htons
	copy(sa.Addr[:], ip4)
	return true
}

// writeBatchOS sends msgs[0:n] with sendmmsg and returns how many were
// handed to the kernel; the caller finishes the rest with plain writes.
func writeBatchOS(n *Node, dsts []*net.UDPAddr, msgs []transport.Outgoing) int {
	if len(msgs) < 2 {
		return 0
	}
	rc, err := n.conn.SyscallConn()
	if err != nil {
		return 0
	}
	sas := make([]syscall.RawSockaddrInet4, len(msgs))
	iovs := make([]syscall.Iovec, len(msgs))
	hdrs := make([]mmsghdr, 0, len(msgs))
	bytes := make([]int, 0, len(msgs))
	for i, m := range msgs {
		if len(m.Data) == 0 || !sockaddrInet4(&sas[i], dsts[i]) {
			// Mixed address families: let the fallback loop handle all of
			// it rather than reordering datagrams around the batch.
			return 0
		}
		iovs[i] = syscall.Iovec{Base: &m.Data[0], Len: uint64(len(m.Data))}
		hdrs = append(hdrs, mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&sas[i])),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     &iovs[i],
			Iovlen:  1,
		}})
		bytes = append(bytes, len(m.Data))
	}
	sent := 0
	werr := rc.Write(func(fd uintptr) bool {
		for sent < len(hdrs) {
			rn, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&hdrs[sent])), uintptr(len(hdrs)-sent),
				syscall.MSG_DONTWAIT, 0, 0)
			if errno == syscall.EINTR {
				continue
			}
			if errno == syscall.EAGAIN {
				return false // wait for writability, then retry
			}
			if errno != 0 {
				return true // hand the rest to the fallback loop
			}
			mBatchSends.Inc()
			sent += int(rn)
		}
		return true
	})
	runtime.KeepAlive(sas)
	runtime.KeepAlive(iovs)
	runtime.KeepAlive(msgs)
	if werr != nil && sent == 0 {
		return 0
	}
	for i := 0; i < sent; i++ {
		mSentPackets.Inc()
		mSentBytes.Add(uint64(bytes[i]))
	}
	return sent
}

// readLoopOS drains the socket with recvmmsg until it closes, returning
// true; false (socket not raw-accessible) selects the portable loop.
func readLoopOS(n *Node, conn *net.UDPConn) bool {
	rc, err := conn.SyscallConn()
	if err != nil {
		return false
	}
	bufs := make([][]byte, recvVlen)
	sas := make([]syscall.RawSockaddrAny, recvVlen)
	iovs := make([]syscall.Iovec, recvVlen)
	hdrs := make([]mmsghdr, recvVlen)
	for i := range bufs {
		bufs[i] = make([]byte, 64*1024)
		iovs[i] = syscall.Iovec{Base: &bufs[i][0], Len: uint64(len(bufs[i]))}
		hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&sas[i])),
			Namelen: syscall.SizeofSockaddrAny,
			Iov:     &iovs[i],
			Iovlen:  1,
		}}
	}
	sources := sourceCache{}
	for {
		got := 0
		err := rc.Read(func(fd uintptr) bool {
			for i := range hdrs {
				hdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny
				hdrs[i].len = 0
			}
			rn, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
				uintptr(unsafe.Pointer(&hdrs[0])), recvVlen,
				syscall.MSG_DONTWAIT, 0, 0)
			switch errno {
			case 0:
				got = int(rn)
				return true
			case syscall.EINTR:
				return false
			case syscall.EAGAIN:
				return false // block on the netpoller until readable
			default:
				got = -1 // socket gone (closed) or unrecoverable
				return true
			}
		})
		if err != nil || got < 0 {
			return true // closed
		}
		if got >= 2 {
			mBatchRecvs.Inc()
		}
		for i := 0; i < got; i++ {
			if k, ok := sockaddrKey(&sas[i]); ok {
				n.dispatch(sources.addr(k), bufs[i][:hdrs[i].len])
			}
		}
	}
}

// sockaddrKey reads a raw source address; false for an address family
// the node does not speak.
func sockaddrKey(sa *syscall.RawSockaddrAny) (sourceKey, bool) {
	switch sa.Addr.Family {
	case syscall.AF_INET:
		s4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return sourceKey{ap: netip.AddrPortFrom(netip.AddrFrom4(s4.Addr), s4.Port>>8|s4.Port<<8)}, true
	case syscall.AF_INET6:
		s6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		return sourceKey{ap: netip.AddrPortFrom(netip.AddrFrom16(s6.Addr), s6.Port>>8|s6.Port<<8), scope: s6.Scope_id}, true
	}
	return sourceKey{}, false
}
