package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"fxa/internal/asm"
)

// imageDigests pins every catalog proxy's program image: the SHA-256 of
// its Build() segments (imageDigest). A change to the table generators
// or to the kernel source that alters a single byte fails here, at the
// source, before it reaches the timing goldens. Update an entry only for
// a deliberate workload change, and expect the goldens to move with it.
var imageDigests = map[string]string{
	"astar":      "833db87cf764bde94d4a367b7aef9b32c3dd7f4e2a3edb4f9fa50565cc0646cc",
	"bzip2":      "4299bc651a57065b41e28d5900d7738166fb10ed9bde661b3ce7dc21293db5c6",
	"gcc":        "3a0adc9ce0e1c65daad21ee8ef7f2da8daae59fa05133d968cc262895c7cd6ea",
	"gobmk":      "d4cc6402fa7ece701a3fdf1139e578252c9b481ac27e93b56c42b83028eb60af",
	"h264ref":    "56423737fc6f8b1e6e9f66bb6dfeeae000a4e3c22cdbcb8b91b76c77e1435c91",
	"hmmer":      "873ff3869b7ce380cb944ebf26fe2d4ec18d2a057f3865100cc86acedc52166f",
	"libquantum": "4b6fffec51f82be7a20e78848fd1ad874b39b1c7efd7df93d9815201c969363d",
	"mcf":        "88c485acc49abe6bda13a9e75410d70b12d6d892f3b74c31eff9abab2f622a44",
	"omnetpp":    "d40beca94183b134de212ec3f88f82e8e0be6269201a2a77a1222f675d167525",
	"perlbench":  "d83e10384da338c4048e4db26f84b6ba03460aed10e58ae3de5e18cbc1c83dad",
	"sjeng":      "c36d4b6156fd1fb7821bd0687313f57a97a07eccda32e2b56f136a1eb996c869",
	"xalancbmk":  "90df5579461d732032862576a31deb25f80ba8b71986f572d92bec09099c5b12",
	"GemsFDTD":   "cae89cfb4b3e7c7f7ef8b177c15ff56964cbb00bc6c480dd2f8a097ae3835f36",
	"bwaves":     "0be055b03b1eceeed7a4e197bec71f320890f9b77998a614a77e22ad075e0be1",
	"cactusADM":  "d6b6077696c22619f4e53e607f728a20b21d5a5f5909814aa0400e5d37b9fb56",
	"calculix":   "802ad99ee9d55dfc58c58be0076824b32bdd96de6157e774177b18650d7839b0",
	"dealII":     "9acf4116b9457eb8cc97cb9ef5ebb8c565d36b788ad3f2c66e01d46da254433b",
	"gamess":     "e243a64f83e43494a16b4d8fa8e0ae766ba8f39e3be7f582e217b3190d038cbf",
	"gromacs":    "7916dec3f5a98b09ae738e6597eb7fb6ef5cafb0a90178437ac64d9d03e4aaca",
	"lbm":        "5f797f5396c8c24014c06057913cb852435479afedc619942b848962966f8ed3",
	"leslie3d":   "157eb3d04024a91f5ead842cdeaabe15c74edcd2d2e7b12cfff773fa7a8587e4",
	"milc":       "0984aadfc293b592ed2aa2874924caf589e03466718ab465c7f9dfe1d2fb6a14",
	"namd":       "3b381a39c6f4ef83854762b3a9987f51241a9bb5847a3b8c8f000ec01b150d2e",
	"povray":     "32fefba5b4fdff7c3da6da670d1e766ecf2c1d64e025ace86267ba6d111eb901",
	"soplex":     "d59b62cd6629612fc409c75c9394ca767ed238de92b7df6034aab1621eec3ea6",
	"sphinx3":    "dca7d7fa517a82c3fb3e943c6e7e0e7936d9ac3fbef68e5367e88aa6e78577ad",
	"tonto":      "3edd51a6625dfe3a296fb7144f563af7e59c3cc9250e4f9eff739bc2d5f20bd7",
	"wrf":        "f1707b0a8a9069d5aabc364c89e607db088b7b2b4046942661e4c29bdcc4ccbd",
	"zeusmp":     "1a29a57ac0b6bc4183a02ca4f4e68d9bada66467598bc3677f4ffeae7251f727",
}

// imageDigest hashes a program image: for each segment in order, its
// address and length (little-endian uint64) followed by its bytes.
func imageDigest(prog *asm.Program) string {
	h := sha256.New()
	var hdr [16]byte
	for _, s := range prog.Segments {
		binary.LittleEndian.PutUint64(hdr[:8], s.Addr)
		binary.LittleEndian.PutUint64(hdr[8:], s.Len())
		h.Write(hdr[:])
		h.Write(s.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestBuildImagesPinned(t *testing.T) {
	cat := Catalog()
	if len(cat) != len(imageDigests) {
		t.Errorf("catalog has %d proxies, digest table %d", len(cat), len(imageDigests))
	}
	for _, p := range cat {
		prog, err := p.Build()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		want, ok := imageDigests[p.Name]
		if !ok {
			t.Errorf("%s: no pinned digest", p.Name)
			continue
		}
		if got := imageDigest(prog); got != want {
			t.Errorf("%s: image digest %s, pinned %s", p.Name, got, want)
		}
	}
}
