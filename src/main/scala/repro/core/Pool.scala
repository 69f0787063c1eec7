package repro.core

import java.util.concurrent.{Callable, ExecutionException, Executors}

/** The one shared worker pool for data-parallel loops inside a call
  * ([[MetadataBuilder.fromMatrix]]): `availableProcessors` daemon threads,
  * created on first use. A task must not submit to the pool itself, and
  * code that is not thread-safe must not run on it — in particular
  * `LayoutGen.generate`, which callers may wrap in single-threaded tracing.
  */
private[repro] object Pool {

  val size: Int = Runtime.getRuntime.availableProcessors

  private lazy val executor = Executors.newFixedThreadPool(size, (r: Runnable) => {
    val t = new Thread(r, "repro-pool")
    t.setDaemon(true)
    t
  })

  /** `f(0), …, f(n - 1)` on the pool, results in index order. Waits for every
    * task; if any failed, rethrows the failure of the lowest index as thrown.
    */
  def map[T](n: Int)(f: Int => T): IndexedSeq[T] = {
    val futures = (0 until n).map(i => executor.submit(new Callable[T] { def call(): T = f(i) }))
    futures.foreach(fu => try fu.get() catch { case _: ExecutionException => })
    futures.map(fu => try fu.get() catch { case e: ExecutionException => throw e.getCause })
  }
}
