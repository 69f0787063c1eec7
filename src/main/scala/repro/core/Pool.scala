package repro.core

import java.util.concurrent.{Callable, ExecutionException, Executors, Future, ThreadFactory}

/** The one shared worker pool for data-parallel loops inside a call
  * ([[MetadataBuilder.fromMatrix]]): `availableProcessors` daemon threads,
  * created on first use. A task must not submit to the pool itself, and
  * code that is not thread-safe must not run on it — in particular
  * `LayoutGen.generate`, which callers may wrap in single-threaded tracing.
  *
  * Next to the workers, one long-lived daemon thread runs pipeline stages
  * ([[later]]) in submission order. It is not a worker, so a stage may call
  * [[map]] and wait for the workers without taking one of them.
  */
private[repro] object Pool {

  val size: Int = Runtime.getRuntime.availableProcessors

  private def daemons(name: String): ThreadFactory = (r: Runnable) => {
    val t = new Thread(r, name)
    t.setDaemon(true)
    t
  }

  private lazy val workers = Executors.newFixedThreadPool(size, daemons("repro-pool"))

  private lazy val pipeline = Executors.newSingleThreadExecutor(daemons("repro-pipeline"))

  private def task[T](f: => T): Callable[T] = new Callable[T] { def call(): T = f }

  /** `f(0), …, f(n - 1)` on the pool, results in index order. Waits for every
    * task; if any failed, rethrows the failure of the lowest index as thrown.
    */
  def map[T](n: Int)(f: Int => T): IndexedSeq[T] =
    await((0 until n).map(i => workers.submit(task(f(i)))))

  /** Runs `f` on the pipeline thread after every stage submitted before it.
    * Its future must not be awaited on a pool worker or on the pipeline
    * thread itself.
    */
  def later[T](f: => T): Future[T] = pipeline.submit(task(f))

  /** The results of `futures` in order. Waits for every one; if any failed,
    * rethrows the first failure in order as thrown.
    */
  def await[T](futures: Seq[Future[T]]): IndexedSeq[T] = {
    futures.foreach(fu => try fu.get() catch { case _: ExecutionException => })
    futures.map(fu => try fu.get() catch { case e: ExecutionException => throw e.getCause }).toIndexedSeq
  }
}
