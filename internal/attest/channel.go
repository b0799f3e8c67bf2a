package attest

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The secure channel binds an X25519 key agreement into the attestation
// report: the in-CVM party (VeilMon or an enclave service) puts its
// ephemeral public key into the report's ReportData, so the remote user —
// after verifying the PSP signature, measurement and VMPL — knows the key
// belongs to the attested software and not to a man in the middle (§5.1).

// ErrChannel indicates a channel protocol failure (tamper or replay).
var ErrChannel = errors.New("attest: secure channel failure")

// KeyPair is one side's ephemeral X25519 key.
type KeyPair struct {
	priv *ecdh.PrivateKey
}

// NewKeyPair draws an ephemeral key from rng (crypto/rand.Reader if nil).
func NewKeyPair(rng io.Reader) (*KeyPair, error) {
	if rng == nil {
		rng = rand.Reader
	}
	priv, err := ecdh.X25519().GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("attest: keypair: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// PublicBytes returns the 32-byte public key, suitable for ReportData.
func (k *KeyPair) PublicBytes() []byte { return k.priv.PublicKey().Bytes() }

// Channel is an established AES-256-GCM channel with monotonically
// increasing message counters in both directions (replay protection).
type Channel struct {
	aead    cipher.AEAD
	sendSeq uint64
	recvSeq uint64
	sendDir byte
	recvDir byte
	// nonceBuf is the one nonce the channel builds per Seal or Open: GCM
	// reads it before returning and keeps nothing, so one buffer serves
	// every message.
	nonceBuf [gcmNonceSize]byte
}

// gcmNonceSize is the standard AES-GCM nonce size cipher.NewGCM uses.
const gcmNonceSize = 12

// channelDirections: the "user" side sends with direction 0, the "monitor"
// side with direction 1; nonces never collide between directions.

// OpenChannel derives the shared channel from our key and the peer's
// public bytes. Set monitorSide true inside the CVM and false at the
// remote user so the two sides agree on nonce directions.
func (k *KeyPair) OpenChannel(peerPublic []byte, monitorSide bool) (*Channel, error) {
	peer, err := ecdh.X25519().NewPublicKey(peerPublic)
	if err != nil {
		return nil, fmt.Errorf("attest: peer key: %w", err)
	}
	shared, err := k.priv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("attest: ECDH: %w", err)
	}
	key := sha256.Sum256(append([]byte("veil-channel-v1"), shared...))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	ch := &Channel{aead: aead}
	if monitorSide {
		ch.sendDir, ch.recvDir = 1, 0
	} else {
		ch.sendDir, ch.recvDir = 0, 1
	}
	return ch, nil
}

// nonce lays out (direction, zero padding, little-endian sequence) in the
// channel's nonce buffer.
func (c *Channel) nonce(dir byte, seq uint64) []byte {
	n := c.nonceBuf[:]
	n[0] = dir
	binary.LittleEndian.PutUint64(n[len(n)-8:], seq)
	return n
}

// maxSeq is the send-counter ceiling: a channel refuses to seal its 2^63rd
// message rather than let the counter creep toward nonce reuse. No session
// gets near it in practice; the guard exists so overflow is a refusal, not
// a silent wrap.
const maxSeq = uint64(1) << 63

// ErrChannelExhausted is returned by Seal when the send counter reaches the
// 2^63 ceiling. The channel must be re-keyed (a new handshake), never
// wrapped.
var ErrChannelExhausted = errors.New("attest: channel send counter exhausted")

// Seal encrypts and authenticates msg with the next send sequence number.
// It fails — without consuming a sequence number — once the send counter
// reaches the 2^63 ceiling.
func (c *Channel) Seal(msg []byte) ([]byte, error) { return c.SealAAD(nil, msg, nil) }

// SealAAD is Seal with additional authenticated data, appending the sealed
// message to dst and returning the extended slice: a caller that seals into
// a reused buffer, or after a prefix it has already written, allocates
// nothing once the buffer has grown. aad travels in plaintext beside the
// ciphertext (VeilS-Channel puts the frame header, including fleet trace
// context, there) but is bound into the GCM tag, so the host can read it
// and route on it yet cannot alter it without the peer's Open failing.
//
// dst's spare capacity must not overlap msg, and dst must not overlap aad
// at all: crypto/cipher panics on either overlap.
func (c *Channel) SealAAD(dst, msg, aad []byte) ([]byte, error) {
	if c.sendSeq >= maxSeq {
		return nil, ErrChannelExhausted
	}
	out := c.aead.Seal(dst, c.nonce(c.sendDir, c.sendSeq), msg, aad)
	c.sendSeq++
	return out, nil
}

// Open authenticates and decrypts the next message from the peer. A
// replayed, reordered or tampered ciphertext fails authentication and does
// not advance the window: the next in-order message still opens.
func (c *Channel) Open(sealed []byte) ([]byte, error) { return c.OpenAAD(nil, sealed, nil) }

// OpenAAD is Open with additional authenticated data, appending the opened
// message to dst; aad must match the aad the sender sealed with byte for
// byte, or authentication fails. A refused open returns nil, leaves dst's
// contents up to len(dst) untouched and does not advance the window, so
// the caller may open the next frame into the same buffer. The overlap
// rule is SealAAD's, with sealed in msg's place.
func (c *Channel) OpenAAD(dst, sealed, aad []byte) ([]byte, error) {
	msg, err := c.aead.Open(dst, c.nonce(c.recvDir, c.recvSeq), sealed, aad)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChannel, err)
	}
	c.recvSeq++
	return msg, nil
}

// Overhead is how many bytes a sealed message is longer than its
// plaintext: the GCM tag.
func (c *Channel) Overhead() int { return c.aead.Overhead() }
