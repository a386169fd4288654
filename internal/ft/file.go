package ft

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ReadFile reads and validates a fault tree from a file. format is
// "json" or "text"; "" picks JSON for a .json extension (any case) and
// the text format otherwise.
func ReadFile(path, format string) (*Tree, error) {
	if format == "" {
		format = "text"
		if strings.EqualFold(filepath.Ext(path), ".json") {
			format = "json"
		}
	}
	var read func(io.Reader) (*Tree, error)
	switch format {
	case "json":
		read = ReadJSON
	case "text":
		read = ReadText
	default:
		return nil, fmt.Errorf("unknown input format %q", format)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}
