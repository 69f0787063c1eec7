package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  test("self time subtracts the union of direct children only") {
    val spans = Seq(
      Span(0, -1, "root", 0, 100),
      Span(1, 0, "a", 10, 40),
      Span(2, 1, "a.inner", 20, 30),
      Span(3, 0, "b", 35, 60), // overlaps a: the overlap counts once
      Span(4, -1, "other", 200, 210))
    val self = Tracer.selfTimesNs(spans)
    assert(self == Map(0 -> 50L, 1 -> 20L, 2 -> 10L, 3 -> 25L, 4 -> 10L))
  }

  test("children are clipped to their parent's interval") {
    val self = Tracer.selfTimesNs(Seq(Span(0, -1, "p", 10, 20), Span(1, 0, "c", 5, 15)))
    assert(self(0) == 5L)
  }

  test("byName sums calls, duration and self time per name") {
    val spans = Seq(Span(0, -1, "pass", 0, 100), Span(1, 0, "gen", 0, 30), Span(2, 0, "gen", 50, 60))
    assert(Tracer.byName(spans) == Map("pass" -> (1, 100L, 60L), "gen" -> (2, 40L, 40L)))
  }

  test("the tracer nests spans by call structure and a disabled one records nothing") {
    val t = new Tracer(true, "run")
    t.span("outer") { t.span("inner")(()); t.span("inner")(()) }
    val byId = t.spans.map(s => s.id -> s).toMap
    val outer = t.spans.find(_.name == "outer").get
    assert(outer.parent == -1)
    assert(t.spans.filter(_.name == "inner").forall(_.parent == outer.id))
    assert(t.spans.forall(s => s.parent < 0 || (byId(s.parent).start <= s.start && s.end <= byId(s.parent).end)))
    val off = new Tracer(false, "run")
    assert(off.span("x")(41 + 1) == 42)
    assert(off.spans.isEmpty)
  }

  test("a span is closed when its body throws") {
    val t = new Tracer(true, "run")
    intercept[IllegalStateException](t.span("boom")(throw new IllegalStateException("x")))
    t.span("after")(())
    assert(t.spans.map(s => s.name -> s.parent) == Seq("boom" -> -1, "after" -> -1))
  }

  test("nearest-rank percentiles") {
    val s = new Samples
    (1 to 100).foreach(i => s.add(i.toLong))
    assert(s.percentileNs(50) == 50.0)
    assert(s.percentileNs(90) == 90.0)
    assert(s.percentileNs(100) == 100.0)
  }
}
