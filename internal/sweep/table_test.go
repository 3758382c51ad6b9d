package sweep

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"name", "value"}}
	tb.AddRow("a", "1")
	tb.AddRow("long|name", "22", "extra")
	text := tb.String()
	if text != "== demo ==\nname       value       \na              1       \nlong|name     22  extra\n" {
		t.Fatalf("text:\n%s", text)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| name | value |  |\n| --- | ---: | ---: |\n") || !strings.Contains(md, `| long\|name | 22 | extra |`) {
		t.Fatalf("markdown:\n%s", md)
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := &Table{Header: []string{"x,1", `y"q`}}
	tb.AddRow(`se,ries`, "a\nb")
	csv := tb.CSV()
	if csv != "\"x,1\",\"y\"\"q\"\n\"se,ries\",\"a\nb\"\n" {
		t.Fatalf("escaping wrong:\n%s", csv)
	}
}
