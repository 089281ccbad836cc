package corrbench

/** The little JSON the benchmark writes: its result line and the trace file. */
object Json {
  sealed trait Value { def render(sb: StringBuilder): Unit }

  final case class Num(v: Double) extends Value {
    def render(sb: StringBuilder): Unit =
      if (!java.lang.Double.isFinite(v)) sb.append("null")
      else if (v == math.rint(v) && math.abs(v) < 1e15) sb.append(v.toLong)
      else sb.append(java.lang.Double.toString(v))
  }
  final case class Str(s: String) extends Value {
    def render(sb: StringBuilder): Unit = {
      sb.append('"')
      s.foreach {
        case '"'  => sb.append("\\\"")
        case '\\' => sb.append("\\\\")
        case '\n' => sb.append("\\n")
        case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
        case c    => sb.append(c)
      }
      sb.append('"')
    }
  }
  final case class Bool(b: Boolean) extends Value {
    def render(sb: StringBuilder): Unit = sb.append(b)
  }
  final case class Arr(items: Seq[Value]) extends Value {
    def render(sb: StringBuilder): Unit = {
      sb.append('[')
      items.iterator.zipWithIndex.foreach { case (v, i) => if (i > 0) sb.append(','); v.render(sb) }
      sb.append(']')
    }
  }
  final case class Obj(fields: Seq[(String, Value)]) extends Value {
    def render(sb: StringBuilder): Unit = {
      sb.append('{')
      fields.iterator.zipWithIndex.foreach { case ((k, v), i) =>
        if (i > 0) sb.append(", ")
        Str(k).render(sb); sb.append(": "); v.render(sb)
      }
      sb.append('}')
    }
  }

  def num(v: Double): Value = Num(v)
  def obj(fields: (String, Value)*): Obj = Obj(fields)

  def write(v: Value): String = { val sb = new StringBuilder; v.render(sb); sb.toString }
}
