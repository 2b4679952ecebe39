package main

import "testing"

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string // innermost first
		want   string
	}{
		{[]string{"runtime.mallocgc", "visibility/internal/index.(*Space).Subtract", "visibility/internal/raycast.(*Analyzer).Analyze"}, "index"},
		{[]string{"visibility/internal/obs/recorder.(*Tape).Put", "visibility/internal/dist.(*Driver).Launch"}, "obs"},
		{[]string{"runtime.gcDrain", "visibility/internal/index.(*Space).Subtract"}, "gc"},
		{[]string{"runtime.Gosched", "main.(*service).drive.func1"}, benchLayer},
		{[]string{"main.(*digestAnalyzer).Analyze", "visibility/internal/dist.(*Driver).Launch", "main.runEpisode"}, benchLayer},
		{[]string{"visibility.(*Runtime).Launch", "main.runServe"}, "visibility"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
	if !hasAnalyzerFrame([]string{"visibility/internal/index.(*Space).Subtract", "visibility/internal/warnock.(*Analyzer).Analyze"}) {
		t.Error("a warnock frame below an index frame is an analyzer sample")
	}
	if hasAnalyzerFrame([]string{"visibility/internal/painter.x", "visibility/internal/dist.(*Driver).Launch"}) {
		t.Error("only the analyzer packages themselves count")
	}
}
