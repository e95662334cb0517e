package snapshot

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
