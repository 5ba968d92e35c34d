// Package ipaddr provides IPv4 address utilities used by the HTTP packet
// destination distance (§IV-B of the paper) and by the synthetic traffic
// generator's address-block allocator.
//
// The paper defines the destination IP term of the packet distance through
// lmatch, "a function [that] returns a number of common upper bits in two IP
// address[es]". This package implements that primitive along with parsing,
// formatting, and CIDR block arithmetic on a compact uint32 representation.
package ipaddr

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order. The zero value is 0.0.0.0.
type Addr uint32

// Parse parses a dotted-quad IPv4 address such as "192.0.2.7".
// It rejects anything that is not exactly four decimal octets.
func Parse(s string) (Addr, error) {
	var a Addr
	rest := s
	for i := 0; i < 4; i++ {
		var part string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("ipaddr: invalid address %q: expected 4 octets", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		} else {
			part = rest
		}
		if part == "" || len(part) > 3 {
			return 0, fmt.Errorf("ipaddr: invalid address %q: bad octet %q", s, part)
		}
		if len(part) > 1 && part[0] == '0' {
			return 0, fmt.Errorf("ipaddr: invalid address %q: leading zero in octet %q", s, part)
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("ipaddr: invalid address %q: bad octet %q", s, part)
		}
		a = a<<8 | Addr(n)
	}
	return a, nil
}

// MustParse is like Parse but panics on error. It is intended for
// package-level tables of known-good literals.
func MustParse(s string) Addr {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String returns the dotted-quad form of the address.
func (a Addr) String() string {
	var b strings.Builder
	b.Grow(15)
	for shift := 24; shift >= 0; shift -= 8 {
		if shift != 24 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(int(a >> uint(shift) & 0xff)))
	}
	return b.String()
}

// MarshalText implements encoding.TextMarshaler using dotted-quad notation,
// so Addr fields serialize naturally in JSON captures.
func (a Addr) MarshalText() ([]byte, error) {
	return []byte(a.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (a *Addr) UnmarshalText(text []byte) error {
	v, err := Parse(string(text))
	if err != nil {
		return err
	}
	*a = v
	return nil
}

// FromOctets assembles an address from four octets, most significant first.
func FromOctets(o0, o1, o2, o3 byte) Addr {
	return Addr(o0)<<24 | Addr(o1)<<16 | Addr(o2)<<8 | Addr(o3)
}

// CommonPrefixLen returns the number of leading bits shared by a and b,
// in [0, 32]. This is the paper's lmatch primitive: identical addresses
// return 32; addresses differing in the top bit return 0.
func CommonPrefixLen(a, b Addr) int {
	x := uint32(a ^ b)
	if x == 0 {
		return 32
	}
	n := 0
	for x&0x80000000 == 0 {
		n++
		x <<= 1
	}
	return n
}

// prefixMask returns the network mask with the given prefix length.
// prefixMask(0) is 0.0.0.0 and prefixMask(32) is 255.255.255.255.
func prefixMask(prefixLen int) Addr {
	if prefixLen <= 0 {
		return 0
	}
	if prefixLen >= 32 {
		return 0xffffffff
	}
	return Addr(^uint32(0) << uint(32-prefixLen))
}

// Block is a CIDR block: a base address and a prefix length.
type Block struct {
	Base Addr
	Bits int // prefix length in [0, 32]
}

// ParseBlock parses CIDR notation such as "203.0.113.0/24".
func ParseBlock(s string) (Block, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Block{}, fmt.Errorf("ipaddr: invalid CIDR %q: missing '/'", s)
	}
	base, err := Parse(s[:slash])
	if err != nil {
		return Block{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Block{}, fmt.Errorf("ipaddr: invalid CIDR %q: bad prefix length", s)
	}
	return Block{Base: base & prefixMask(bits), Bits: bits}, nil
}

// MustParseBlock is like ParseBlock but panics on error.
func MustParseBlock(s string) Block {
	b, err := ParseBlock(s)
	if err != nil {
		panic(err)
	}
	return b
}

// String returns the block in CIDR notation.
func (b Block) String() string {
	return b.Base.String() + "/" + strconv.Itoa(b.Bits)
}

// Contains reports whether the address lies within the block.
func (b Block) Contains(a Addr) bool {
	return a&prefixMask(b.Bits) == b.Base&prefixMask(b.Bits)
}

// Size returns the number of addresses in the block.
func (b Block) Size() uint64 {
	return uint64(1) << uint(32-b.Bits)
}

// Nth returns the i-th address of the block (0 is the base address).
// It panics if i is out of range.
func (b Block) Nth(i uint64) Addr {
	if i >= b.Size() {
		panic(fmt.Sprintf("ipaddr: index %d out of range for %s", i, b))
	}
	return b.Base&prefixMask(b.Bits) | Addr(i)
}

// Overlaps reports whether the two blocks share any address.
func (b Block) Overlaps(o Block) bool {
	return b.Contains(o.Base&prefixMask(o.Bits)) || o.Contains(b.Base&prefixMask(b.Bits))
}
