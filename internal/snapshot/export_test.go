package snapshot

import "hash/crc32"

// PayloadOf returns an image's CRC-checked payload.
func PayloadOf(img []byte) ([]byte, error) {
	_, _, payload, err := readHeader(img)
	return payload, err
}

// Rewrap frames payload with img's header and a valid CRC, so a decode
// test reaches the walker. img must be a valid image.
func Rewrap(img, payload []byte) []byte {
	meta, rootType, _, err := readHeader(img)
	if err != nil {
		panic(err)
	}
	return image(rootType, meta, payload)
}

// image frames a payload with its header and CRC, in one allocation of
// exactly the image size: the bytes Save frames in place around that
// payload.
func image(rootType string, meta Meta, payload []byte) []byte {
	crc := uint64(crc32.ChecksumIEEE(payload))
	size := len(magic) + 2 + strLen(rootType) + strLen(meta.ShapeKey) + uvarintLen(meta.Seed) +
		strLen(meta.Revision) + strLen(meta.Extra) + 8 +
		uvarintLen(uint64(len(payload))) + len(payload) + uvarintLen(crc)
	h := writer{buf: make([]byte, size)}
	h.header(rootType, meta)
	h.bytes(payload)
	h.u64(crc)
	return h.written()
}

// strLen is the encoded size of a length-prefixed string.
func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }
