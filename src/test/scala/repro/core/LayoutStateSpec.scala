package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import TestLayouts._

/** The memoized service cost of a [[LayoutState]] always equals the kernel,
  * [[LayoutMetadata.fractionAccessed]], whatever the order, the ids and the
  * threads of the calls.
  */
class LayoutStateSpec extends AnyFunSuite {

  private val goodFor: Gen[Set[Int]] = Gen.choose(0, 9).flatMap(n => Gen.pick(n, 0 until 10)).map(_.toSet)

  /** Point queries whose ids collide often, with the odd large or negative id. */
  private val queries: Gen[List[Query]] = Gen.listOf(for {
    v <- Gen.choose(0, 9)
    id <- Gen.frequency(6 -> Gen.choose(0, 20), 2 -> Gen.choose(0, 5000), 1 -> Gen.choose(-3, -1))
  } yield query(v, id))

  private def check(prop: Prop): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(Seed(8)), prop)
    assert(res.passed, res.status)
  }

  private def assertKernel(s: LayoutState, q: Query): Unit =
    assert(s.cost(q) == s.metadata.fractionAccessed(q), (s.id, q))

  test("cost equals the kernel on repeated calls, in any order (property)") {
    check(Prop.forAllNoShrink(goodFor, queries, Gen.long) { (good, qs, shuffle) =>
      val s = state("s", good)
      val calls = new scala.util.Random(shuffle).shuffle(qs ++ qs ++ qs)
      calls.foreach(assertKernel(s, _))
      qs.foreach(assertKernel(s, _))
      true
    })
  }

  test("two distinct queries with the same id, interleaved, get their own costs") {
    val s = state("s", Set(3))
    for (id <- Seq(0, 1, 63, 64, 1000, -1)) {
      val a = query(3, id)
      val b = query(7, id)
      val c = a.copy() // equal to a, but another object
      assert(s.metadata.fractionAccessed(a) != s.metadata.fractionAccessed(b))
      for (_ <- 0 until 3; q <- Seq(a, b, a, c, b, c)) assertKernel(s, q)
    }
  }

  test("ids past several growth steps keep every earlier entry") {
    val s = state("s", Set(1, 2))
    val ids = Seq(0, 5, 63, 64, 65, 127, 128, 129, 1023, 4096, 70000, 1 << 20)
    val qs = ids.zipWithIndex.map { case (id, i) => query(i % 10, id) }
    for (q <- qs) assertKernel(s, q)
    for (q <- qs.reverse) assertKernel(s, q)
    for (q <- qs.map(q => query((q.template + 1) % 10, q.id))) assertKernel(s, q)
  }

  test("a negative id is never memoized") {
    val s = state("s", Set(4))
    for (id <- Seq(-1, -2, Int.MinValue); v <- Seq(4, 5, 4, 5)) assertKernel(s, query(v, id))
  }

  test("a copy of a state starts with its own memo") {
    val s = state("s", Set(2))
    val q = query(2, 7)
    assertKernel(s, q)
    val t = s.copy(metadata = state("t", Set(5)).metadata)
    assertKernel(t, q)
    assert(t.cost(q) != s.cost(q))
  }

  test("concurrent calls on colliding ids each get the kernel's cost") {
    val states = IndexedSeq(state("a", Set(0)), state("b", Set(1, 2, 3)), state("c", Set.empty[Int]))
    // two query objects per id, for every value: many objects share each slot
    val qs = for (id <- 0 until 300; v <- Seq(id % 10, (id + 5) % 10); _ <- 0 until 2) yield query(v, id)
    val expected = qs.map(q => states.map(_.metadata.fractionAccessed(q)))
    val tasks = math.max(4, 2 * Pool.size)
    val ok = Pool.await(Pool.all((0 until tasks).map { t =>
      Pool.async {
        val rng = new scala.util.Random(t)
        (0 until 20000).forall { _ =>
          val i = rng.nextInt(qs.size)
          val j = rng.nextInt(states.size)
          states(j).cost(qs(i)) == expected(i)(j)
        }
      }
    }))
    assert(ok.forall(identity))
    for ((q, i) <- qs.zipWithIndex; j <- states.indices) assert(states(j).cost(q) == expected(i)(j))
  }
}
